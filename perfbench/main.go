// Command perfbench is the repository's benchmark: it runs one named
// workload (or all four) at a seed, checks the program's outputs, and
// prints every metric by name and unit, the last line a JSON result.
//
//	perfbench --workload sim-100k-random --seed 3 --seconds 15 --trace 0
//
// The sim workloads run each trial in a child process of this binary, so
// a trial's peak memory and setup are its own. The live workloads run in
// one child. --trace 1 makes the traced run that reports the per-layer
// metrics instead of the end-to-end ones; its spans go under outDir.
//
// perfbench/run.py builds this binary and runs it; BENCHMARK.json at the
// repository root declares the workloads and metrics.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runBudget bounds one run, children included; a run must end within
// 180 s.
const runBudget = 170 * time.Second

// declFile declares the workloads and metrics; outDir receives each
// run's record and spans. Both are relative to the repository root,
// where the benchmark runs.
const (
	declFile = "BENCHMARK.json"
	outDir   = ".bench_build/perfbench-out"
)

// workloads lists the workloads in the order --workload all runs them.
var workloads = []string{"sim-1m-churn", "sim-100k-random", "live-kv", "live-job"}

// dhtbenchName maps the sim workloads to the dhtbench workloads with
// the same configuration.
var dhtbenchName = map[string]string{"sim-1m-churn": "scale-1m", "sim-100k-random": "scale-100k"}

// detailUnits are the units of the detail values that split the shared
// end-to-end metrics by workload and kind.
var detailUnits = map[string]string{
	"tick_ms": "ms", "run_s": "s", "wall_setup_s": "s", "wall_run_s": "s", "job_s": "s", "fail_frac": "frac",
	"get_p50_us": "us", "get_p90_us": "us", "put_p50_us": "us", "put_p90_us": "us",
	"lookup_p50_us": "us", "lookup_p90_us": "us", "submit_p50_us": "us", "submit_p90_us": "us",
	"poll_p50_us": "us", "poll_p90_us": "us",
}

//go:embed expected_ticks.json
var expectedTicksJSON []byte

// metricDecl is one metric of BENCHMARK.json.
type metricDecl struct {
	Name, Unit string
}

type benchmarkFile struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// result is one workload's outcome, printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	errors    []string               // checks that failed, for the report
	info      map[string]float64     // workload-specific detail, for the report
	self      map[string]map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child-sim":
			os.Exit(childSim(os.Args[2:]))
		case "child-live":
			os.Exit(childLive(os.Args[2:]))
		case "record":
			os.Exit(record(os.Args[2:]))
		}
	}
	os.Exit(orchestrate(os.Args[1:], os.Stdout, os.Stderr))
}

func orchestrate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 15, "measuring time of one run")
	trace := fs.Int("trace", 0, "1 makes the traced run, which reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var bf benchmarkFile
	data, err := os.ReadFile(declFile)
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: read %s: %v\n", declFile, err)
		return 2
	}
	names := workloads
	if *workload != "all" {
		if !slices.Contains(workloads, *workload) {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *workload, strings.Join(workloads, ", "))
			return 2
		}
		names = []string{*workload}
	}
	traced := *trace == 1
	want := bf.EndToEnd
	if traced {
		want = bf.PerLayer
	}
	exit := 0
	combined := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range names {
		ctx, cancel := context.WithTimeout(context.Background(), runBudget)
		header := runHeader(w, *seed, *seconds, traced)
		hb, _ := json.Marshal(header)
		fmt.Fprintf(stdout, "# header %s\n", hb)
		dir := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", w, *seed, *trace))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			cancel()
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		var r result
		var raw map[string]float64
		if strings.HasPrefix(w, "sim-") {
			r, raw = runSim(ctx, w, *seed, *seconds, traced, dir)
		} else {
			r, raw = runLive(ctx, w, *seed, *seconds, traced, dir)
		}
		cancel()
		if raw == nil {
			raw = map[string]float64{}
		}
		if r.info == nil {
			r.info = map[string]float64{}
		}
		r.info["fail_frac"] = 1 - okFrac(r)
		if traced {
			fillNotReached(raw, want, w)
		}
		if err := r.fill(want, raw); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w, err)
			return 2
		}
		report(stdout, w, r, want)
		if err := writeRecord(filepath.Join(dir, "run.json"), header, r); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
		}
		line, _ := json.Marshal(r)
		fmt.Fprintf(stdout, "%s\n", line)
		if !r.Correct {
			exit = 1
		}
		combined.Correct = combined.Correct && r.Correct
		combined.Attempted += r.Attempted
		combined.Failed += r.Failed
		for k, v := range r.Metrics {
			combined.Metrics[w+"/"+k] = v
		}
	}
	if len(names) > 1 {
		line, _ := json.Marshal(combined)
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return exit
}

// fill sets Correct and copies the declared metrics out of raw. A
// declared metric a correct run did not produce is an error in the
// benchmark; a failed run reports what it has and 0 for the rest.
func (r *result) fill(want []metricDecl, raw map[string]float64) error {
	r.Correct = r.Failed == 0 && len(r.errors) == 0 && r.Attempted > 0
	r.Metrics = make(map[string]metricValue, len(want))
	var missing []string
	for _, m := range want {
		v, ok := raw[m.Name]
		if !ok {
			missing = append(missing, m.Name)
		}
		r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 && r.Correct {
		return fmt.Errorf("no value for declared metrics %s", strings.Join(missing, ", "))
	}
	return nil
}

func report(w io.Writer, workload string, r result, want []metricDecl) {
	fmt.Fprintf(w, "# %s: correct=%v attempted=%d failed=%d\n", workload, r.Correct, r.Attempted, r.Failed)
	for _, e := range r.errors {
		fmt.Fprintf(w, "#   FAILED CHECK: %s\n", e)
	}
	for _, m := range want {
		fmt.Fprintf(w, "#   %-36s %14.6g %s\n", m.Name, r.Metrics[m.Name].Value, m.Unit)
	}
	keys := make([]string, 0, len(r.info))
	for k := range r.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "#   (detail) %-27s %14.6g %s\n", k, r.info[k], detailUnits[k])
	}
}

// runHeader records what a run needs to be reproduced and compared.
func runHeader(workload string, seed uint64, seconds float64, traced bool) map[string]any {
	h := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"config":     workloadConfig(workload, seed),
	}
	if n, ok := dhtbenchName[workload]; ok {
		h["dhtbench_workload"] = n
	}
	return h
}

// workloadConfig describes a workload's configuration for the header.
func workloadConfig(workload string, seed uint64) map[string]any {
	if cfg, ok := simConfig(workload, seed); ok {
		return map[string]any{
			"Nodes": cfg.Nodes, "Tasks": cfg.Tasks, "ChurnRate": cfg.ChurnRate,
			"Strategy": withDefaultStrategy(cfg).Name(), "Shards": cfg.Shards,
			"ShardWorkers": cfg.ShardWorkers, "Seed": cfg.Seed,
			"trial": "sim.New then Simulation.Run, one child process per trial",
		}
	}
	c := liveConfig()
	base := map[string]any{
		"transport": "loopback TCP", "strategy": "none", "store": "memory",
		"replicas": c.Replicas, "tick": c.TickEvery.String(), "cluster_seed": seed,
	}
	if workload == "live-kv" {
		base["layouts"] = kvLayouts
		base["calls"] = fmt.Sprintf("%d x --seconds, split evenly over the layouts", kvOpsPerSecond)
		base["hosts"] = kvHosts
		base["clients"] = min(kvClients, runtime.NumCPU())
		base["loop"] = "closed: each client sends its next call when the last returns"
		base["mix"] = "20% PutVer of a fresh key (64-byte value), 60% GetVer of an acked key, 20% Lookup of a random key"
	} else {
		base["layouts"] = jobLayouts
		base["hosts"] = jobHosts
		base["clients"] = 1
		base["job"] = fmt.Sprintf("%d SubmitTask calls of %d units on uniform keys, then wait until drained", jobSubmits, jobUnits)
	}
	return base
}

func writeRecord(path string, header map[string]any, r result) error {
	rec := map[string]any{"header": header, "result": r, "failed_checks": r.errors,
		"detail": r.info, "self_times": r.self}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runChild runs this binary with args and decodes the JSON object on
// the last line of its standard output into v.
func runChild(ctx context.Context, v any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return fmt.Errorf("%s: run budget of %v exceeded", args[0], runBudget)
		}
		return fmt.Errorf("%s: %w", args[0], err)
	}
	lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
	return json.Unmarshal([]byte(lines[len(lines)-1]), v)
}

func writeJSON(v any) int {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// childSim runs one sim trial: plain, traced or replay.
func childSim(args []string) int {
	fs := flag.NewFlagSet("child-sim", flag.ContinueOnError)
	workload := fs.String("workload", "", "sim workload")
	seed := fs.Uint64("seed", 1, "seed")
	mode := fs.String("mode", "plain", "plain, traced or replay")
	spans := fs.String("spans", "", "span output path (traced)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, ok := simConfig(*workload, *seed)
	if !ok {
		fmt.Fprintf(os.Stderr, "child-sim: unknown workload %q\n", *workload)
		return 2
	}
	switch *mode {
	case "plain":
		return writeJSON(runPlainTrial(cfg))
	case "traced":
		return writeJSON(runTracedTrial(cfg, *spans))
	case "replay":
		return writeJSON(runReplay(cfg))
	}
	fmt.Fprintf(os.Stderr, "child-sim: unknown mode %q\n", *mode)
	return 2
}

// childLive runs a whole live workload run.
func childLive(args []string) int {
	fs := flag.NewFlagSet("child-live", flag.ContinueOnError)
	workload := fs.String("workload", "", "live workload")
	seed := fs.Uint64("seed", 1, "seed")
	seconds := fs.Float64("seconds", 15, "load window")
	traced := fs.Bool("traced", false, "traced run")
	spans := fs.String("spans", "", "span output path (traced)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *workload {
	case "live-kv":
		return writeJSON(runLiveKV(*seed, *seconds, *traced, *spans))
	case "live-job":
		return writeJSON(runLiveJob(*seed, *traced, *spans))
	}
	fmt.Fprintf(os.Stderr, "child-live: unknown workload %q\n", *workload)
	return 2
}

// record prints the tick table for expected_ticks.json, for every
// trial seed of the runs at the given seeds:
//
//	perfbench record -workload sim-1m-churn -seeds 0-30
func record(args []string) int {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	workload := fs.String("workload", "", "sim workload")
	seeds := fs.String("seeds", "1-10", "inclusive seed range lo-hi")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	lo, hi, ok := strings.Cut(*seeds, "-")
	a, err1 := strconv.ParseUint(lo, 10, 64)
	b, err2 := strconv.ParseUint(hi, 10, 64)
	if _, known := simConfig(*workload, 0); !ok || err1 != nil || err2 != nil || !known {
		fmt.Fprintln(os.Stderr, "record: want -workload <sim workload> -seeds lo-hi")
		return 2
	}
	var list []uint64
	for s := a; s <= b; s++ {
		list = append(list, trialSeeds(s)...)
	}
	ticks, err := recordTicks(*workload, list)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	out := map[string]int{}
	for s, t := range ticks {
		out[strconv.FormatUint(s, 10)] = t
	}
	return writeJSON(map[string]any{*workload: out})
}
