package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"chordbalance/internal/xrand"
)

// notReached lists, by metric-name prefix, the per-layer metrics of
// layers a workload never reaches; they read 0 there, which is the
// prediction "flat on" makes.
var notReached = map[string][]string{
	"sim-1m-churn":    {"netchord.", "collector.", "store.", "wire.", "proc."},
	"sim-100k-random": {"netchord.", "collector.", "store.", "wire.", "proc."},
	"live-kv": {"keys.", "ring.", "sim.", "strategy.", "go.allocs_per_tick",
		"netchord.submit_p50_us", "netchord.tick_lag", "collector."},
	"live-job": {"keys.", "ring.", "sim.", "strategy.", "netchord.lookup_hops",
		"netchord.client.", "store."},
}

// expectedTicks looks up the tick count recorded for a sim workload at
// seed, if the table has one.
func expectedTicks(workload string, seed uint64) (int, bool, error) {
	var table map[string]map[string]int
	if err := json.Unmarshal(expectedTicksJSON, &table); err != nil {
		return 0, false, fmt.Errorf("expected_ticks.json: %w", err)
	}
	t, ok := table[workload][strconv.FormatUint(seed, 10)]
	return t, ok, nil
}

func (r *result) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.errors = append(r.errors, fmt.Sprintf(format, args...))
	}
	return ok
}

// checkTrial applies the per-trial checks: the trial ran, completed,
// consumed every submitted task, took the recorded tick count, and agrees
// with the run's first trial on ticks and runtime factor.
func (r *result) checkTrial(label string, t, first simTrial, tasks, want int, recorded bool) bool {
	if !r.check(t.Error == "", "%s: %s", label, t.Error) {
		return false
	}
	ok := r.check(t.Completed, "%s: the job did not complete", label)
	ok = r.check(t.Consumed == tasks, "%s: consumed %d of %d tasks", label, t.Consumed, tasks) && ok
	if recorded {
		ok = r.check(t.Ticks == want, "%s: %d ticks, recorded %d for this seed", label, t.Ticks, want) && ok
	}
	ok = r.check(t.Ticks == first.Ticks && t.RuntimeFactor == first.RuntimeFactor,
		"%s: %d ticks at runtime factor %.4f, but the first trial took %d at %.4f",
		label, t.Ticks, t.RuntimeFactor, first.Ticks, first.RuntimeFactor) && ok
	return ok
}

func okFrac(r result) float64 {
	return ratio(float64(r.Attempted-r.Failed), float64(r.Attempted))
}

// minSimTrials is the fewest plain trials a sim run makes; its figures
// are medians over them.
const minSimTrials = 3

// trialSeeds are the configuration seeds of a sim run's trials, in turn:
// the run's seed and two split off it. A tick's time follows the seed's
// dynamics (how fast hosts go idle), so a run's figures span three.
func trialSeeds(seed uint64) []uint64 {
	return []uint64{seed, xrand.SplitSeed(seed, 1), xrand.SplitSeed(seed, 2)}
}

// runSim runs a sim workload: plain trials in child processes until
// seconds have passed and minSimTrials are done, or for --trace 1 one
// plain trial, one traced trial and one replay of the setup parts, all at
// the run's seed.
func runSim(ctx context.Context, w string, seed uint64, seconds float64, traced bool, dir string) (result, map[string]float64) {
	r := result{info: map[string]float64{}}
	cfg, _ := simConfig(w, seed)
	trial := func(seed uint64, mode string, extra ...string) (simTrial, error) {
		var t simTrial
		args := []string{"child-sim", "-workload", w, "-seed", strconv.FormatUint(seed, 10), "-mode", mode}
		err := runChild(ctx, &t, append(args, extra...)...)
		return t, err
	}
	// check applies the per-trial checks against the table and against
	// first, the run's first trial at the same seed.
	check := func(label string, seed uint64, t, first simTrial) bool {
		want, recorded, err := expectedTicks(w, seed)
		if err != nil {
			r.errors = append(r.errors, err.Error())
			return false
		}
		if !recorded {
			r.info["unrecorded_trials"]++
		}
		return r.checkTrial(label, t, first, cfg.Tasks, want, recorded)
	}

	if !traced {
		start := time.Now()
		seeds := trialSeeds(seed)
		first := map[uint64]simTrial{}
		var trials []simTrial
		for i := 0; time.Since(start).Seconds() < seconds || i < minSimTrials; i++ {
			s := seeds[i%len(seeds)]
			r.Attempted++
			t, err := trial(s, "plain")
			if err != nil {
				r.Failed++
				r.errors = append(r.errors, err.Error())
				break
			}
			if _, ok := first[s]; !ok {
				first[s] = t
			}
			trials = append(trials, t)
			if !check(fmt.Sprintf("trial %d (seed %d)", i+1, s), s, t, first[s]) {
				r.Failed++
			}
		}
		if len(trials) == 0 {
			return r, nil
		}
		// Every figure is a median over the trials, so one slow stretch
		// of the machine moves at most one trial's value.
		var setup, mem, rate, runS, wallSetup, wallRun, p50, p90 []float64
		for _, t := range trials {
			setup = append(setup, t.SetupS)
			mem = append(mem, t.MemMB)
			rate = append(rate, ratio(float64(t.Ticks), t.RunS))
			runS = append(runS, t.RunS)
			wallSetup = append(wallSetup, t.WallSetupS)
			wallRun = append(wallRun, t.WallRunS)
			p50 = append(p50, quantile(t.TickMS, 0.5))
			p90 = append(p90, quantile(t.TickMS, 0.9))
		}
		r.info["trials"] = float64(len(trials))
		r.info["ticks"] = float64(trials[0].Ticks)
		r.info["runtime_factor"] = trials[0].RuntimeFactor
		r.info["run_s"] = median(runS)
		r.info["wall_setup_s"] = median(wallSetup)
		r.info["wall_run_s"] = median(wallRun)
		r.info["tick_ms"] = 1000 / median(rate)
		return r, map[string]float64{
			"setup_s":   median(setup),
			"mem_mb":    median(mem),
			"ops_per_s": median(rate),
			"p50_us":    median(p50) * 1000,
			"p90_us":    median(p90) * 1000,
			"ok_frac":   okFrac(r),
		}
	}

	raw := map[string]float64{}
	r.Attempted = 2
	plain, err := trial(seed, "plain")
	if err != nil {
		r.Failed = 2
		r.errors = append(r.errors, err.Error())
		return r, raw
	}
	if !check("untraced trial", seed, plain, plain) {
		r.Failed++
	}
	tr, err := trial(seed, "traced", "-spans", filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		r.Failed++
		r.errors = append(r.errors, err.Error())
		return r, raw
	}
	if !check("traced trial", seed, tr, plain) {
		r.Failed++
	}
	rep, err := trial(seed, "replay")
	if err == nil && rep.Error != "" {
		err = fmt.Errorf("replay: %s", rep.Error)
	}
	if err != nil {
		r.errors = append(r.errors, err.Error())
		return r, raw
	}
	for _, m := range []map[string]float64{plain.Layer, tr.Layer, rep.Layer} {
		for k, v := range m {
			raw[k] = v
		}
	}
	raw["sim.new_self_s"] = plain.SetupS - (rep.Layer["keys.node_ids_s"] + rep.Layer["keys.task_keys_s"] +
		rep.Layer["ring.build_s"] + rep.Layer["ring.seed_s"])
	raw["obs.trace_overhead_frac"] = ratio(tr.SetupS+tr.RunS, plain.SetupS+plain.RunS) - 1
	r.self = tr.Self
	r.info["ticks"] = float64(plain.Ticks)
	r.info["untraced_setup_s"] = plain.SetupS
	r.info["untraced_run_s"] = plain.RunS
	r.info["traced_setup_s"] = tr.SetupS
	r.info["traced_run_s"] = tr.RunS
	return r, raw
}

// runLive runs a live workload in one child process.
func runLive(ctx context.Context, w string, seed uint64, seconds float64, traced bool, dir string) (result, map[string]float64) {
	r := result{info: map[string]float64{}}
	args := []string{"child-live", "-workload", w, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-spans", filepath.Join(dir, "spans.jsonl")}
	if traced {
		args = append(args, "-traced")
	}
	var rep liveReport
	if err := runChild(ctx, &rep, args...); err != nil {
		r.Attempted = 1
		r.Failed = 1
		r.errors = append(r.errors, err.Error())
		return r, nil
	}
	r.Attempted, r.Failed = rep.Attempted, rep.Failed
	r.errors = append(r.errors, rep.Errors...)
	r.info = rep.Info
	r.self = rep.Self
	if traced {
		return r, rep.Layer
	}
	raw := map[string]float64{
		"setup_s": median(rep.SetupS),
		"mem_mb":  rep.MemMB,
		"ok_frac": okFrac(r),
	}
	for k, v := range rep.E2E {
		raw[k] = v
	}
	return r, raw
}

// fillNotReached zeroes the declared metrics of the layers workload
// never reaches.
func fillNotReached(raw map[string]float64, want []metricDecl, workload string) {
	for _, m := range want {
		for _, p := range notReached[workload] {
			if strings.HasPrefix(m.Name, p) {
				raw[m.Name] = 0
			}
		}
	}
}
