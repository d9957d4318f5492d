package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
	"chordbalance/internal/obs"
	"chordbalance/internal/ring"
	"chordbalance/internal/sim"
	"chordbalance/internal/strategy"
)

// taskKeySalt is the salt sim.New's task stream feeds keys.NewGenerator
// (seed XOR this constant); the replay draws the same keys with it.
const taskKeySalt = 0x9e3779b97f4a7c15

// simConfig returns a sim workload's configuration at seed. Both are the
// dhtbench configurations of the same scale (see dhtbenchName).
func simConfig(workload string, seed uint64) (sim.Config, bool) {
	switch workload {
	case "sim-1m-churn":
		return sim.Config{Nodes: 1000000, Tasks: 4000000, ChurnRate: 0.0001,
			Shards: 8, ShardWorkers: 0, Seed: seed}, true
	case "sim-100k-random":
		return sim.Config{Nodes: 100000, Tasks: 2000000, ChurnRate: 0.001,
			Strategy: strategy.NewRandomInjection(), Shards: 8, ShardWorkers: 0, Seed: seed}, true
	}
	return sim.Config{}, false
}

// simTrial is what one sim trial child reports.
type simTrial struct {
	// SetupS and RunS time sim.New and Simulation.Run as effective time
	// (see effective); the Wall fields are the same intervals unadjusted.
	SetupS        float64 `json:"setup_s"`
	RunS          float64 `json:"run_s"`
	WallSetupS    float64 `json:"wall_setup_s"`
	WallRunS      float64 `json:"wall_run_s"`
	Ticks         int     `json:"ticks"`
	RuntimeFactor float64 `json:"runtime_factor"`
	Completed     bool    `json:"completed"`
	Consumed      int     `json:"consumed"`
	// TickMS holds one sample a tick: its decision period's effective
	// time over the period's tick count.
	TickMS []float64 `json:"tick_ms"`
	MemMB  float64   `json:"mem_mb"`
	// Layer carries the traced trial's and the replay's layer metrics,
	// and the plain trial's Go runtime counters.
	Layer map[string]float64 `json:"layer,omitempty"`
	// Self is the traced trial's calls, total and self time per span name.
	Self  map[string]map[string]float64 `json:"self,omitempty"`
	Error string                        `json:"error,omitempty"`
}

// periodClock passes Decide through and stamps its start, so a plain
// trial can split its tick loop into decision periods at the cost of one
// clock reading per period.
type periodClock struct {
	inner  strategy.Strategy
	stamps []stamp
}

func (p *periodClock) Name() string { return p.inner.Name() }

func (p *periodClock) Decide(w strategy.World) {
	p.stamps = append(p.stamps, readStamp())
	p.inner.Decide(w)
}

// periodTickMS turns Decide stamps into per-tick effective times: each
// tick gets its decision period's time over the period's tick count.
// Decide runs at the end of ticks DecisionEvery, 2×DecisionEvery, ...;
// the last period runs from the last Decide to the end of Run.
func periodTickMS(start, end stamp, stamps []stamp, every, ticks int) []float64 {
	var out []float64
	period := func(from, to stamp, n int) {
		ms := msOf(effective(from, to)) / float64(n)
		for i := 0; i < n; i++ {
			out = append(out, ms)
		}
	}
	prev, prevTick := start, 0
	for i, s := range stamps {
		tick := (i + 1) * every
		period(prev, s, tick-prevTick)
		prev, prevTick = s, tick
	}
	if ticks > prevTick {
		period(prev, end, ticks-prevTick)
	}
	return out
}

func withDefaultStrategy(cfg sim.Config) strategy.Strategy {
	if cfg.Strategy == nil {
		return strategy.NewNone()
	}
	return cfg.Strategy
}

func consumedTasks(res *sim.Result) int {
	n := 0
	for _, c := range res.CompletedByStrength {
		n += c
	}
	return n
}

// collectSetupGarbage runs a collection as the last step of a trial's
// setup. sim.New allocates about 1 GB at 1M hosts, and the collection
// that garbage calls for otherwise starts wherever the heap goal falls,
// at the end of setup or in the first ticks of Run. Timed inside setup,
// it is charged to the code that made the garbage, and the tick loop's
// figures are not set by where the collector happened to start.
func collectSetupGarbage() { runtime.GC() }

// runPlainTrial times sim.New and Simulation.Run with nothing attached
// but the period clock, and reads the Go runtime's counters around them.
func runPlainTrial(cfg sim.Config) simTrial {
	clock := &periodClock{inner: withDefaultStrategy(cfg)}
	cfg.Strategy = clock
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := readStamp()
	s, err := sim.New(cfg)
	if err != nil {
		return simTrial{Error: fmt.Sprintf("sim.New: %v", err)}
	}
	collectSetupGarbage()
	t1 := readStamp()
	runtime.ReadMemStats(&m1)
	t1b := readStamp()
	res := s.Run()
	t2 := readStamp()
	runtime.ReadMemStats(&m2)
	every := cfg.DecisionEvery
	if every == 0 {
		every = strategy.Params{}.WithDefaults().DecisionEvery
	}
	tr := simTrial{
		SetupS:        effective(t0, t1).Seconds(),
		RunS:          effective(t1b, t2).Seconds(),
		WallSetupS:    t1.wall.Sub(t0.wall).Seconds(),
		WallRunS:      t2.wall.Sub(t1b.wall).Seconds(),
		Ticks:         res.Ticks,
		RuntimeFactor: res.RuntimeFactor,
		Completed:     res.Completed,
		Consumed:      consumedTasks(res),
		TickMS:        periodTickMS(t1b, t2, clock.stamps, every, res.Ticks),
		MemMB:         peakRSSMB(),
		Layer: map[string]float64{
			"go.gc_cycles":       float64(m2.NumGC - m0.NumGC),
			"go.gc_pause_s":      float64(m2.PauseTotalNs-m0.PauseTotalNs) / 1e9,
			"go.alloc_mb":        float64(m2.TotalAlloc-m0.TotalAlloc) / (1 << 20),
			"go.allocs_per_tick": float64(m2.Mallocs-m1.Mallocs) / float64(max(res.Ticks, 1)),
		},
	}
	return tr
}

// tickSink is the obs.Sink of a traced trial: it keeps no record, only
// the time each tick record arrived. Record 0 is written as Run starts,
// record i as tick i ends.
type tickSink struct{ stamps []time.Time }

var tickPrefix = []byte(`{"kind":"tick"`)

func (s *tickSink) Write(line []byte) error {
	if bytes.HasPrefix(line, tickPrefix) {
		s.stamps = append(s.stamps, time.Now())
	}
	return nil
}

func (s *tickSink) Close() error { return nil }

// tracedWorld times the World calls the strategies make into the engine
// (the ring splices behind CreateSybil and DropSybils, and RandomID's
// occupied-ID search); every other method passes straight through.
type tracedWorld struct {
	strategy.World
	tr          *Tracer
	sybilCalls  int64
	sybilWithKs int64
}

func (w *tracedWorld) CreateSybil(h strategy.Host, id ids.ID) (int, bool) {
	w.tr.Begin("sim.world.create_sybil", 0)
	n, ok := w.World.CreateSybil(h, id)
	w.tr.End()
	w.sybilCalls++
	if n > 0 {
		w.sybilWithKs++
	}
	return n, ok
}

func (w *tracedWorld) DropSybils(h strategy.Host) {
	w.tr.Begin("sim.world.drop_sybils", 0)
	w.World.DropSybils(h)
	w.tr.End()
}

func (w *tracedWorld) RandomID() ids.ID {
	w.tr.Begin("sim.world.random_id", 0)
	id := w.World.RandomID()
	w.tr.End()
	return id
}

// tracedStrategy wraps Decide in a span and hands the strategy the
// timing World.
type tracedStrategy struct {
	inner  strategy.Strategy
	world  *tracedWorld
	starts []time.Time
}

func (s *tracedStrategy) Name() string { return s.inner.Name() }

func (s *tracedStrategy) Decide(w strategy.World) {
	s.starts = append(s.starts, time.Now())
	s.world.World = w
	s.world.tr.Begin("strategy.decide", 0)
	s.inner.Decide(s.world)
	s.world.tr.End()
}

// runTracedTrial runs the trial with the strategy and World wrappers and
// the timing sink attached, writes its spans to spansPath, and reports
// the sim and strategy layer metrics.
func runTracedTrial(cfg sim.Config, spansPath string) simTrial {
	epoch := time.Now()
	tr := NewTracer(epoch)
	world := &tracedWorld{tr: tr}
	strat := &tracedStrategy{inner: withDefaultStrategy(cfg), world: world}
	sink := &tickSink{}
	cfg.Strategy = strat
	cfg.Trace = obs.New(sink)
	tr.Begin("sim.trial", 0)
	tr.Begin("sim.new", 0)
	t0 := readStamp()
	s, err := sim.New(cfg)
	if err != nil {
		return simTrial{Error: fmt.Sprintf("sim.New: %v", err)}
	}
	collectSetupGarbage()
	t1 := readStamp()
	tr.End()
	tr.Begin("sim.run", 0)
	runSpan := tr.nextID
	t2 := readStamp()
	res := s.Run()
	t3 := readStamp()
	tr.End()
	tr.End()
	if err := cfg.Trace.Close(); err != nil {
		return simTrial{Error: fmt.Sprintf("close trace: %v", err)}
	}

	var decideTicks, plainTicks []float64
	next := 0
	for i := 1; i < len(sink.stamps); i++ {
		from, to := sink.stamps[i-1], sink.stamps[i]
		tr.Add("sim.tick", from, to, runSpan)
		decided := false
		for next < len(strat.starts) && !strat.starts[next].After(to) {
			decided = decided || strat.starts[next].After(from)
			next++
		}
		ms := float64(to.Sub(from).Nanoseconds()) / 1e6
		if decided {
			decideTicks = append(decideTicks, ms)
		} else {
			plainTicks = append(plainTicks, ms)
		}
	}
	if err := tr.WriteJSONL(spansPath); err != nil {
		return simTrial{Error: err.Error()}
	}
	decide := tr.Layer("strategy.decide")
	layer := map[string]float64{
		"sim.decide_tick_ms.p50": quantile(decideTicks, 0.5),
		"sim.plain_tick_ms.p50":  quantile(plainTicks, 0.5),
		"strategy.decide.calls":  float64(decide.Calls),
		"strategy.decide.s":      decide.Total.Seconds(),
		"strategy.decide_self_s": decide.Self.Seconds(),
		"strategy.sybil_yield":   ratio(float64(world.sybilWithKs), float64(world.sybilCalls)),
	}
	for _, name := range []string{"create_sybil", "drop_sybils", "random_id"} {
		lt := tr.Layer("sim.world." + name)
		layer["sim.world."+name+".calls"] = float64(lt.Calls)
		layer["sim.world."+name+".s"] = lt.Total.Seconds()
	}
	return simTrial{
		SetupS:        effective(t0, t1).Seconds(),
		RunS:          effective(t2, t3).Seconds(),
		WallSetupS:    t1.wall.Sub(t0.wall).Seconds(),
		WallRunS:      t3.wall.Sub(t2.wall).Seconds(),
		Ticks:         res.Ticks,
		RuntimeFactor: res.RuntimeFactor,
		Completed:     res.Completed,
		Consumed:      consumedTasks(res),
		MemMB:         peakRSSMB(),
		Layer:         layer,
		Self:          tr.SelfTimes(),
	}
}

// replayVNode stands in for the engine's unexported vnode payload, so
// the replayed ring holds pointers as the real one does.
type replayVNode struct{ host int }

// runReplay replays the parts of sim.New that live in other packages,
// on the same inputs: node IDs through keys.NewGenerator with sim.New's
// dedupe, task keys from the task stream's salt, then ring.Build and
// ring.Seed.
func runReplay(cfg sim.Config) simTrial {
	t0 := readStamp()
	gen := keys.NewGenerator(cfg.Seed)
	taken := make(map[ids.ID]bool, cfg.Nodes)
	nodeIDs := make([]ids.ID, 0, cfg.Nodes)
	data := make([]*replayVNode, 0, cfg.Nodes)
	for len(nodeIDs) < cfg.Nodes {
		id := gen.Next()
		if !taken[id] {
			taken[id] = true
			nodeIDs = append(nodeIDs, id)
			data = append(data, &replayVNode{host: len(data)})
		}
	}
	t1 := readStamp()
	taskKeys := keys.NewGenerator(cfg.Seed ^ taskKeySalt).TaskKeys(cfg.Tasks)
	t2 := readStamp()
	r := ring.New[*replayVNode]()
	if _, err := r.Build(nodeIDs, data); err != nil {
		return simTrial{Error: fmt.Sprintf("ring.Build: %v", err)}
	}
	t3 := readStamp()
	if err := r.Seed(taskKeys); err != nil {
		return simTrial{Error: fmt.Sprintf("ring.Seed: %v", err)}
	}
	t4 := readStamp()
	if r.Len() != cfg.Nodes || r.TotalKeys() != cfg.Tasks {
		return simTrial{Error: fmt.Sprintf("replayed ring holds %d nodes and %d keys, want %d and %d",
			r.Len(), r.TotalKeys(), cfg.Nodes, cfg.Tasks)}
	}
	return simTrial{Completed: true, MemMB: peakRSSMB(), Layer: map[string]float64{
		"keys.node_ids_s":  effective(t0, t1).Seconds(),
		"keys.task_keys_s": effective(t1, t2).Seconds(),
		"ring.build_s":     effective(t2, t3).Seconds(),
		"ring.seed_s":      effective(t3, t4).Seconds(),
	}}
}

// recordTicks runs the workload untimed at each seed and returns the
// tick count, for the table the trials are checked against.
func recordTicks(workload string, seeds []uint64) (map[uint64]int, error) {
	out := make(map[uint64]int, len(seeds))
	for _, seed := range seeds {
		cfg, _ := simConfig(workload, seed)
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		out[seed] = res.Ticks
	}
	return out, nil
}
