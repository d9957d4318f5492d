package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chordbalance/internal/ids"
	"chordbalance/internal/netchord"
	"chordbalance/internal/wire"
	"chordbalance/internal/xrand"
)

// The live workloads' shapes.
const (
	kvHosts      = 16
	kvClients    = 2
	kvValueBytes = 64
	// kvOpsPerSecond sizes a live-kv run: --seconds × this many calls,
	// about the closed loop's rate on a 2-core box. A fixed count, not a
	// fixed time, keeps the data a run stores, and so its memory, the same
	// on a fast and a slow machine.
	kvOpsPerSecond = 8000
	jobHosts       = 8
	jobSubmits     = 1000
	jobUnits       = 8 // units per SubmitTask
	// kvLayouts and jobLayouts are how many clusters a plain run builds,
	// each on its own seed and so its own ring layout; each carries an
	// equal share of the load, and setup_s is the median of their setups.
	kvLayouts  = 5
	jobLayouts = 2
	// warmup is the idle wait between a cluster's setup and its load: a
	// node refreshes one of its 160 fingers a stabilize round (20 ms), so
	// its finger table is whole after 3.2 s.
	warmup = 3500 * time.Millisecond
	// idleWindow is how long a traced run watches the cluster with no
	// load, to rate the background traffic the load's counts include.
	idleWindow      = time.Second
	convergeTimeout = 30 * time.Second
	drainTimeout    = 60 * time.Second
	// pollEvery is the wait between live-job progress queries.
	pollEvery        = 10 * time.Millisecond
	lossConfirmAfter = time.Second
)

// liveConfig is the chordd default configuration: memory stores,
// Replicas 2, 5 ms ticks.
func liveConfig() netchord.Config { return netchord.Config{}.WithDefaults() }

// liveReport is what a live child reports to the orchestrator.
type liveReport struct {
	SetupS    []float64          `json:"setup_s"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	E2E       map[string]float64 `json:"e2e"`
	Layer     map[string]float64 `json:"layer"`
	Info      map[string]float64 `json:"info"`
	// Self is the traced half's calls, total and self time per span name.
	Self map[string]map[string]float64 `json:"self,omitempty"`
	// MemMB is the live heap after the load (see liveHeapMB).
	MemMB float64 `json:"mem_mb"`
}

func (r *liveReport) fail(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// countingTransport wraps a Transport to count dials and the bytes every
// connection writes, in both directions.
type countingTransport struct {
	inner netchord.Transport
	dials atomic.Int64
	bytes atomic.Int64
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

func (t *countingTransport) Listen(addr string) (net.Listener, error) {
	ln, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: ln, n: &t.bytes}, nil
}

func (t *countingTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	t.dials.Add(1)
	c, err := t.inner.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &t.bytes}, nil
}

// setupCluster boots a cluster and waits for its ring to converge,
// returning the time both took.
func setupCluster(tr netchord.Transport, hosts int, seed uint64) (*netchord.Cluster, float64, error) {
	t0 := time.Now()
	c, err := netchord.NewCluster(liveConfig(), tr, nil, hosts, netchord.StrategyNone, seed, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("NewCluster: %w", err)
	}
	if !c.AwaitConverged(convergeTimeout) {
		c.Close()
		return nil, 0, fmt.Errorf("ring of %d hosts did not converge within %v", hosts, convergeTimeout)
	}
	return c, time.Since(t0).Seconds(), nil
}

// netSnap is the cluster's counters at one instant.
type netSnap struct {
	at                         time.Time
	served                     int64
	appends, appendBytes, gets uint64
	retries, timeouts, reconn  int64
	bytes, dials               int64
	cpu                        time.Duration
	mem                        runtime.MemStats
}

func snapshot(c *netchord.Cluster, clients []*netchord.Client, ct *countingTransport) netSnap {
	s := netSnap{at: time.Now(), cpu: cpuTime()}
	runtime.ReadMemStats(&s.mem)
	for _, n := range c.Nodes() {
		st := n.Stats()
		for t := 0; t < wire.TypeCount; t++ {
			s.served += st.Served[t]
		}
		s.appends += st.Store.Appends
		s.appendBytes += st.Store.AppendBytes
		s.gets += st.Store.Gets
		s.retries += st.RPC.Retries
		s.timeouts += st.RPC.Timeouts
		s.reconn += st.RPC.Reconnects
	}
	for _, cl := range clients {
		st := cl.Stats()
		s.retries += st.Retries
		s.timeouts += st.Timeouts
		s.reconn += st.Reconnects
	}
	if ct != nil {
		s.bytes, s.dials = ct.bytes.Load(), ct.dials.Load()
	}
	return s
}

// netLayer turns counter snapshots around an idle window (i0, i1) and a
// load window (l0, l1) of ops operations into the netchord, RPC and wire
// layer metrics. Messages and bytes per op count only what the load added
// over the idle window's background rate.
func netLayer(i0, i1, l0, l1 netSnap, ops int64) map[string]float64 {
	idleSecs, loadSecs := i1.at.Sub(i0.at).Seconds(), l1.at.Sub(l0.at).Seconds()
	// foreground is what the load added over the idle rate.
	foreground := func(idle0, idle1, load0, load1 int64) float64 {
		return float64(load1-load0) - ratio(float64(idle1-idle0), idleSecs)*loadSecs
	}
	n := float64(ops)
	return map[string]float64{
		"netchord.fg_msgs_per_op": ratio(foreground(i0.served, i1.served, l0.served, l1.served), n),
		"netchord.bg_msgs_per_s":  ratio(float64(i1.served-i0.served), idleSecs),
		"netchord.rpc.retries":    float64(l1.retries - l0.retries),
		"netchord.rpc.timeouts":   float64(l1.timeouts - l0.timeouts),
		"netchord.rpc.reconnects": float64(l1.reconn - l0.reconn),
		"wire.bytes_per_op":       ratio(foreground(i0.bytes, i1.bytes, l0.bytes, l1.bytes), n),
		"wire.dials":              float64(l1.dials - l0.dials),
	}
}

// goLayer reads the Go runtime's counters over a window.
func goLayer(a, b netSnap) map[string]float64 {
	return map[string]float64{
		"go.gc_cycles":  float64(b.mem.NumGC - a.mem.NumGC),
		"go.gc_pause_s": float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e9,
		"go.alloc_mb":   float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / (1 << 20),
	}
}

func randomID(r *xrand.Rand) ids.ID {
	var b [ids.Bytes]byte
	for i := 0; i < len(b); i += 8 {
		v := r.Uint64()
		for j := i; j < i+8 && j < len(b); j++ {
			b[j] = byte(v)
			v >>= 8
		}
	}
	return ids.FromBytes(b[:])
}

// ownerTable answers "which node owns key" from the sorted membership:
// the first node ID at or after key, wrapping around.
type ownerTable []ids.ID

func newOwnerTable(c *netchord.Cluster) ownerTable {
	var t ownerTable
	for _, n := range c.Nodes() {
		t = append(t, n.ID())
	}
	sort.Slice(t, func(i, j int) bool { return t[i].Less(t[j]) })
	return t
}

func (t ownerTable) owner(key ids.ID) ids.ID {
	i := sort.Search(len(t), func(i int) bool { return !t[i].Less(key) })
	if i == len(t) {
		i = 0
	}
	return t[i]
}

func (t ownerTable) equal(u ownerTable) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// kv op kinds.
const (
	opGet = iota
	opPut
	opLookup
	opKinds
)

var opNames = [opKinds]string{"get", "put", "lookup"}

// sliceEvery is how often a live-kv window reads the clocks; the quiet
// half of the slices between readings carries the window's figures.
const sliceEvery = 250 * time.Millisecond

type ackedWrite struct {
	key   ids.ID
	value []byte
	ver   uint64
}

// call is one client call: its kind, when it returned and how long it
// took.
type call struct {
	kind int
	end  time.Time
	lat  time.Duration
}

// kvLoad is what one client's loop did over one window.
type kvLoad struct {
	calls                        []call
	hops                         []int
	attempted, failed, completed int64
	errors                       []string
}

func (l *kvLoad) fail(format string, args ...any) {
	l.failed++
	if len(l.errors) < 4 {
		l.errors = append(l.errors, fmt.Sprintf(format, args...))
	}
}

func (l *kvLoad) timed(kind int, t0 time.Time) {
	end := time.Now()
	l.calls = append(l.calls, call{kind: kind, end: end, lat: end.Sub(t0)})
}

// pickOp draws the mix: 20% PutVer of a fresh key, 60% GetVer of one of
// this client's acked keys (a put while it has none), 20% Lookup.
func pickOp(r *xrand.Rand, acked int) int {
	switch k := r.Intn(10); {
	case k < 2:
		return opPut
	case k < 8:
		if acked == 0 {
			return opPut
		}
		return opGet
	default:
		return opLookup
	}
}

// kvClient is one closed-loop client: it sends its next call only when
// the previous one returned. In a traced run its acked writes carry over
// from the untraced half into the traced one.
type kvClient struct {
	cl    *netchord.Client
	r     *xrand.Rand
	acked []ackedWrite
	op    int64
}

func newKVClients(c *netchord.Cluster, tr netchord.Transport, seed uint64) []*kvClient {
	out := make([]*kvClient, min(kvClients, runtime.NumCPU()))
	for i := range out {
		out[i] = &kvClient{
			cl: netchord.NewClient(liveConfig(), tr, c.SeedAddr(), xrand.SplitSeed(seed, uint64(100+i))),
			r:  xrand.Split(seed, uint64(200+i)),
			op: int64(i) << 40,
		}
	}
	return out
}

func closeClients(cs []*kvClient) {
	for _, c := range cs {
		c.cl.Close()
	}
}

// run makes calls until the shared budget is spent.
func (k *kvClient) run(owners ownerTable, budget *atomic.Int64, tr *Tracer) *kvLoad {
	l := &kvLoad{}
	cl, r := k.cl, k.r
	for budget.Add(-1) >= 0 {
		kind := pickOp(r, len(k.acked))
		k.op++
		op := k.op
		l.attempted++
		tr.Begin("kv.op", op)
		switch kind {
		case opPut:
			key := randomID(r)
			value := make([]byte, kvValueBytes)
			for i := range value {
				value[i] = byte(r.Uint64())
			}
			tr.Begin("netchord.client.put_ver", op)
			t0 := time.Now()
			ver, err := cl.PutVer(key, value)
			l.timed(opPut, t0)
			tr.End()
			if err != nil {
				l.fail("PutVer %s: %v", key.Short(), err)
			} else {
				k.acked = append(k.acked, ackedWrite{key: key, value: value, ver: ver})
				l.completed++
			}
		case opGet:
			w := k.acked[r.Intn(len(k.acked))]
			tr.Begin("netchord.client.get_ver", op)
			t0 := time.Now()
			value, ver, err := cl.GetVer(w.key)
			l.timed(opGet, t0)
			tr.End()
			switch {
			case err != nil:
				l.fail("GetVer %s: %v", w.key.Short(), err)
			case !bytes.Equal(value, w.value) || ver < w.ver:
				l.fail("GetVer %s: got %d bytes at version %d, want the acked %d bytes at version >= %d",
					w.key.Short(), len(value), ver, len(w.value), w.ver)
			default:
				l.completed++
			}
		case opLookup:
			key := randomID(r)
			tr.Begin("netchord.client.lookup", op)
			t0 := time.Now()
			ref, hops, err := cl.Lookup(key)
			l.timed(opLookup, t0)
			tr.End()
			switch want := owners.owner(key); {
			case err != nil:
				l.fail("Lookup %s: %v", key.Short(), err)
			case ref.ID != want:
				l.fail("Lookup %s: owner %s, want successor %s", key.Short(), ref.ID.Short(), want.Short())
			default:
				l.hops = append(l.hops, hops)
				l.completed++
			}
		}
		tr.End()
	}
	return l
}

// kvWindow is the merged result of every client over one load window,
// with the clock readings taken every sliceEvery through it.
type kvWindow struct {
	kvLoad
	stamps  []stamp
	tracers []*Tracer
}

// runKVWindow drives the cluster with the clients until they have made
// ops calls between them. With traced set, each client records spans on
// its own tracer.
func runKVWindow(c *netchord.Cluster, clients []*kvClient, ops int64, traced bool, epoch time.Time) kvWindow {
	owners := newOwnerTable(c)
	loads := make([]*kvLoad, len(clients))
	tracers := make([]*Tracer, len(clients))
	var budget atomic.Int64
	budget.Store(ops)
	w := kvWindow{stamps: []stamp{readStamp()}}
	done := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(sliceEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				w.stamps = append(w.stamps, readStamp())
			}
		}
	}()
	var wg sync.WaitGroup
	for i := range clients {
		if traced {
			tracers[i] = NewTracer(epoch)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			loads[i] = clients[i].run(owners, &budget, tracers[i])
		}(i)
	}
	wg.Wait()
	close(done)
	sampler.Wait()
	w.stamps = append(w.stamps, readStamp())
	for i, l := range loads {
		w.calls = append(w.calls, l.calls...)
		w.hops = append(w.hops, l.hops...)
		w.attempted += l.attempted
		w.failed += l.failed
		w.completed += l.completed
		w.errors = append(w.errors, l.errors...)
		if traced {
			w.tracers = append(w.tracers, tracers[i])
		}
	}
	if !owners.equal(newOwnerTable(c)) {
		w.failed++
		w.errors = append(w.errors, "ring membership changed during the window; Lookup owners were checked against a stale table")
	}
	return w
}

// stealShare is the share of the CPU the process asked for between a
// and b that the hypervisor gave to someone else.
func stealShare(a, b stamp) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.cpu-a.cpu+b.steal-a.steal))
}

// quietShare is the steal share above which a slice of a live-kv window
// is left out of its figures.
const quietShare = 0.05

// A slice is the calls that ended between two clock readings of a
// window.
type slice struct {
	calls []call
	secs  float64
}

// quietSlices splits calls by the slice between two stamps they ended
// in and keeps the quiet slices: those where the hypervisor stole at
// most quietShare of the CPU the process asked for, or, when fewer than
// half are, the half with the smallest steal share. On a shared VM the
// neighbours' load comes in bursts that halve the closed loop's rate and
// stretch its latency; on a machine without steal every slice is quiet.
func quietSlices(stamps []stamp, calls []call) []slice {
	n := len(stamps) - 1
	all := make([]slice, n)
	share := make([]float64, n)
	order := make([]int, n)
	for i := range all {
		all[i].secs = stamps[i+1].wall.Sub(stamps[i].wall).Seconds()
		share[i] = stealShare(stamps[i], stamps[i+1])
		order[i] = i
	}
	for _, c := range calls {
		// The slice a call ended in: the last stamp at or before its end.
		if i := sort.Search(n, func(i int) bool { return stamps[i+1].wall.After(c.end) }); i < n {
			all[i].calls = append(all[i].calls, c)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return share[order[a]] < share[order[b]] })
	var out []slice
	for rank, i := range order {
		if rank >= (n+1)/2 && share[i] > quietShare {
			break
		}
		out = append(out, all[i])
	}
	return out
}

// sliceMedian is the median over slices of f of each slice: a burst of
// slow slices moves it less than it moves a figure pooled over the
// window.
func sliceMedian(slices []slice, f func(slice) float64) float64 {
	xs := make([]float64, 0, len(slices))
	for _, s := range slices {
		if len(s.calls) > 0 {
			xs = append(xs, f(s))
		}
	}
	return median(xs)
}

func sliceRate(s slice) float64 { return ratio(float64(len(s.calls)), s.secs) }

// sliceLatency returns f for the q-quantile latency in µs of one kind of
// call (every kind for kind < 0).
func sliceLatency(kind int, q float64) func(slice) float64 {
	return func(s slice) float64 { return quantile(latencies(s.calls, kind), q) }
}

// latencies lists the calls' latencies in µs, of every kind or of one.
func latencies(calls []call, kind int) []float64 {
	var out []float64
	for _, c := range calls {
		if kind < 0 || c.kind == kind {
			out = append(out, micros(c.lat))
		}
	}
	return out
}

func countKind(calls []call, kind int) float64 {
	return float64(len(latencies(calls, kind)))
}

// kvLatencies is the per-kind latency split of the netchord client's
// calls, named prefix + get_p50_us and so on.
func kvLatencies(slices []slice, prefix string) map[string]float64 {
	out := map[string]float64{}
	for k, name := range opNames {
		out[prefix+name+"_p50_us"] = sliceMedian(slices, sliceLatency(k, 0.5))
		out[prefix+name+"_p90_us"] = sliceMedian(slices, sliceLatency(k, 0.9))
	}
	return out
}

// addWindow counts a window's operations and failed checks.
func (r *liveReport) addWindow(w kvWindow) {
	r.Attempted += w.attempted
	for _, e := range w.errors {
		r.fail(0, "%s", e)
	}
	r.Failed += w.failed
}

// setup builds a cluster and records its setup time; on failure it
// counts a failed operation and returns nil.
func (r *liveReport) setup(tr netchord.Transport, hosts int, seed uint64) *netchord.Cluster {
	c, s, err := setupCluster(tr, hosts, seed)
	if err != nil {
		r.Attempted++
		r.fail(1, "setup: %v", err)
		return nil
	}
	r.SetupS = append(r.SetupS, s)
	return c
}

func runLiveKV(seed uint64, seconds float64, traced bool, spansPath string) liveReport {
	rep := liveReport{E2E: map[string]float64{}, Layer: map[string]float64{}, Info: map[string]float64{}}
	ops := int64(seconds * kvOpsPerSecond)
	if !traced {
		// Each setup carries an equal share of the load on its own ring
		// layout, so one run's figures do not hang on one draw of 16 host
		// IDs: some layouts are reproducibly a sixth slower than others.
		var slices []slice
		var steal, wall, heap float64
		for i := 0; i < kvLayouts; i++ {
			c := rep.setup(netchord.TCP{}, kvHosts, xrand.SplitSeed(seed, uint64(i)))
			if c == nil {
				return rep
			}
			clients := newKVClients(c, netchord.TCP{}, xrand.SplitSeed(seed, uint64(i)))
			time.Sleep(warmup)
			w := runKVWindow(c, clients, ops/kvLayouts, false, time.Now())
			heap = max(heap, liveHeapMB())
			closeClients(clients)
			c.Close()
			rep.addWindow(w)
			slices = append(slices, quietSlices(w.stamps, w.calls)...)
			first, last := w.stamps[0], w.stamps[len(w.stamps)-1]
			wall += last.wall.Sub(first.wall).Seconds()
			steal += stealShare(first, last) / kvLayouts
		}
		rep.E2E["ops_per_s"] = sliceMedian(slices, sliceRate)
		rep.E2E["p50_us"] = sliceMedian(slices, sliceLatency(-1, 0.5))
		rep.E2E["p90_us"] = sliceMedian(slices, sliceLatency(-1, 0.9))
		rep.Info = kvLatencies(slices, "")
		rep.Info["window_wall_s"] = wall
		rep.Info["window_steal_share"] = steal
		rep.Info["quiet_slices"] = float64(len(slices))
		rep.MemMB = heap
		return rep
	}

	// Traced run: an untraced half for the timings, then a traced half on
	// a counting transport for the counters and spans.
	half := ops / 2
	c := rep.setup(netchord.TCP{}, kvHosts, seed)
	if c == nil {
		return rep
	}
	clients := newKVClients(c, netchord.TCP{}, seed)
	time.Sleep(warmup)
	a := snapshot(c, nil, nil)
	plain := runKVWindow(c, clients, half, false, time.Now())
	b := snapshot(c, nil, nil)
	closeClients(clients)
	c.Close()
	rep.addWindow(plain)
	plainSlices := quietSlices(plain.stamps, plain.calls)
	for k, v := range kvLatencies(plainSlices, "netchord.client.") {
		rep.Layer[k] = v
	}
	for k, v := range goLayer(a, b) {
		rep.Layer[k] = v
	}
	rep.Layer["proc.cpu_ms_per_op"] = ratio(float64((b.cpu-a.cpu).Nanoseconds())/1e6, float64(plain.attempted))

	ct := &countingTransport{inner: netchord.TCP{}}
	if c = rep.setup(ct, kvHosts, seed); c == nil {
		return rep
	}
	clients = newKVClients(c, ct, seed)
	time.Sleep(warmup - idleWindow)
	i0 := snapshot(c, nil, ct)
	time.Sleep(idleWindow)
	cls := make([]*netchord.Client, len(clients))
	for i, k := range clients {
		cls[i] = k.cl
	}
	i1 := snapshot(c, cls, ct)
	epoch := time.Now()
	tw := runKVWindow(c, clients, half, true, epoch)
	l1 := snapshot(c, cls, ct)
	closeClients(clients)
	c.Close()
	rep.addWindow(tw)
	for k, v := range netLayer(i0, i1, i1, l1, tw.attempted) {
		rep.Layer[k] = v
	}
	puts, gets := countKind(tw.calls, opPut), countKind(tw.calls, opGet)
	rep.Layer["store.appends_per_put"] = ratio(float64(l1.appends-i1.appends), puts)
	rep.Layer["store.append_bytes_per_put"] = ratio(float64(l1.appendBytes-i1.appendBytes), puts)
	rep.Layer["store.gets_per_get"] = ratio(float64(l1.gets-i1.gets), gets)
	hops := make([]float64, len(tw.hops))
	for i, h := range tw.hops {
		hops[i] = float64(h)
	}
	rep.Layer["netchord.lookup_hops.mean"] = mean(hops)
	rep.Layer["obs.trace_overhead_frac"] = ratio(sliceMedian(plainSlices, sliceRate), sliceMedian(quietSlices(tw.stamps, tw.calls), sliceRate)) - 1

	merged := NewTracer(epoch)
	for _, t := range tw.tracers {
		merged.Merge(t)
	}
	if err := merged.WriteJSONL(spansPath); err != nil {
		rep.fail(0, "%v", err)
	}
	rep.Self = merged.SelfTimes()
	return rep
}

// jobSliceEvery is how often the drain reads the clocks. A slice holds
// about a hundred progress queries, so its p90 has ten beyond it.
const jobSliceEvery = time.Second

// tickSliceEvery is how often the drain reads every host's busy
// interval. A host busy through a slice gives one tick time, and a job
// gives about seventy, so a run's p90 has more than ten beyond it; a
// slice spans about a hundred ticks, so counting whole ticks adds at
// most 1% to a slice's figure.
const tickSliceEvery = 500 * time.Millisecond

// jobRun is one submission of the job and its drain.
type jobRun struct {
	submitLat              []time.Duration
	polls                  []call  // the progress queries
	stamps                 []stamp // the drain's clock readings
	failedPolls            int64
	submitted, failedUnits uint64
	drained                bool
	jobS                   float64
	marks                  []hostMark // every host's busy interval, each tickSliceEvery
	busyTicks              int
	reports                int64
	mallocs                uint64
	clientRPC              netchord.RPCStats
	errors                 []string
}

// hostTotals sums every host's own view of consumed and residual units.
func hostTotals(c *netchord.Cluster) (consumed, residual uint64) {
	for _, h := range c.Hosts() {
		st := h.Stats()
		consumed += st.Consumed
		residual += st.Residual
	}
	return consumed, residual
}

// runJob submits jobSubmits tasks of jobUnits units on uniform keys from
// one client, then waits until the collector reports every submitted
// unit consumed. Units that never drain are lost: every host is idle
// and the consumed total stays short of the submitted one.
func runJob(c *netchord.Cluster, tr netchord.Transport, seed uint64, tracer *Tracer) jobRun {
	cfg := liveConfig()
	cl := netchord.NewClient(cfg, tr, c.SeedAddr(), xrand.SplitSeed(seed, 300))
	defer cl.Close()
	r := xrand.Split(seed, 301)
	taskKeys := make([]ids.ID, jobSubmits)
	for i := range taskKeys {
		taskKeys[i] = randomID(r)
	}
	// The poll records get their largest size up front, so the live heap
	// after the job does not depend on how long it ran.
	j := jobRun{polls: make([]call, 0, drainTimeout/pollEvery+1)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	reports0 := c.Collector().Progress().Reports
	start := time.Now()
	tracer.Begin("job", 0)
	tracer.Begin("job.submit", 0)
	for i, key := range taskKeys {
		tracer.Begin("netchord.client.submit_task", int64(i+1))
		t0 := time.Now()
		err := cl.SubmitTask(key, jobUnits)
		j.submitLat = append(j.submitLat, time.Since(t0))
		tracer.End()
		if err != nil {
			j.failedUnits += jobUnits
			if len(j.errors) < 4 {
				j.errors = append(j.errors, fmt.Sprintf("SubmitTask %s: %v", key.Short(), err))
			}
			continue
		}
		j.submitted += jobUnits
	}
	tracer.End()
	tracer.Begin("job.drain", 0)
	j.stamps = []stamp{readStamp()}
	j.marks = []hostMark{markHosts(c)}
	deadline := start.Add(drainTimeout)
	var idleSince time.Time
	for {
		// Ask as cmd/dhtload -await does: over the wire, on a fresh
		// connection.
		tracer.Begin("netchord.fetch_progress", 0)
		t0 := time.Now()
		p, err := netchord.FetchProgress(tr, cfg, c.Collector().Addr())
		now := time.Now()
		tracer.End()
		j.polls = append(j.polls, call{end: now, lat: now.Sub(t0)})
		if now.Sub(j.stamps[len(j.stamps)-1].wall) >= jobSliceEvery {
			j.stamps = append(j.stamps, readStamp())
		}
		if now.Sub(j.marks[len(j.marks)-1].at) >= tickSliceEvery {
			j.marks = append(j.marks, markHosts(c))
		}
		if err != nil {
			j.failedPolls++
			if len(j.errors) < 4 {
				j.errors = append(j.errors, fmt.Sprintf("FetchProgress: %v", err))
			}
		} else if p.Consumed >= j.submitted && p.Residual == 0 {
			j.drained = true
			j.jobS = now.Sub(start).Seconds()
			break
		}
		consumed, residual := hostTotals(c)
		if residual == 0 && consumed < j.submitted {
			if idleSince.IsZero() {
				idleSince = now
			} else if now.Sub(idleSince) >= lossConfirmAfter {
				break
			}
		} else {
			idleSince = time.Time{}
		}
		if now.After(deadline) {
			break
		}
		time.Sleep(pollEvery)
	}
	j.stamps = append(j.stamps, readStamp())
	tracer.End()
	tracer.End()
	j.clientRPC = cl.Stats()
	runtime.ReadMemStats(&m1)
	j.mallocs = m1.Mallocs - m0.Mallocs
	p := c.Collector().Progress()
	j.busyTicks = p.BusyTicks
	j.reports = p.Reports - reports0
	if !j.drained {
		j.jobS = time.Since(start).Seconds()
		consumed, residual := hostTotals(c)
		lost := j.submitted - min(consumed, j.submitted)
		j.failedUnits += lost
		j.errors = append(j.errors, fmt.Sprintf(
			"job did not drain within %v: %d of %d acked units consumed, %d residual on the hosts, %d lost",
			drainTimeout, consumed, j.submitted, residual, lost))
	}
	return j
}

// A hostMark is every host's busy interval at one moment of a drain.
type hostMark struct {
	at   time.Time
	last []int  // Host.Stats().LastBusyTick, by host
	busy []bool // residual work left, by host
}

func markHosts(c *netchord.Cluster) hostMark {
	m := hostMark{at: time.Now()}
	for _, h := range c.Hosts() {
		st := h.Stats()
		m.last = append(m.last, st.LastBusyTick)
		m.busy = append(m.busy, st.Residual > 0)
	}
	return m
}

// tickTimesUS returns a host loop tick time, in µs, for every host busy
// through a slice between two marks: the slice's wall time over the ticks
// the host's busy interval grew by. A host with work consumes every tick,
// so its interval grows by one a tick of its loop; a loop that falls
// behind its 5 ms ticker shows as a longer tick.
func tickTimesUS(marks []hostMark) []float64 {
	var out []float64
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		for h := range b.last {
			if a.busy[h] && b.busy[h] && b.last[h] > a.last[h] {
				out = append(out, micros(b.at.Sub(a.at))/float64(b.last[h]-a.last[h]))
			}
		}
	}
	return out
}

// addJob counts a job's task units and progress queries as its
// operations; a unit that was refused or never drained, or a query that
// failed, is a failed one.
func (r *liveReport) addJob(j jobRun) {
	r.Attempted += jobSubmits*jobUnits + int64(len(j.polls))
	r.Failed += int64(j.failedUnits) + j.failedPolls
	for _, e := range j.errors {
		r.fail(0, "%s", e)
	}
}

func runLiveJob(seed uint64, traced bool, spansPath string) liveReport {
	rep := liveReport{E2E: map[string]float64{}, Layer: map[string]float64{}, Info: map[string]float64{}}
	tick := liveConfig().TickEvery.Seconds()
	if !traced {
		// As in live-kv, each setup runs the job on its own ring layout.
		// Only figures are kept from a job, not its poll records, so the
		// next job's live heap holds the same benchmark data however
		// long this one ran.
		var submitLat []time.Duration
		var busy, jobS float64
		var tickUS, pollP50, pollP90 []float64
		quiet := 0
		for i := 0; i < jobLayouts; i++ {
			sub := xrand.SplitSeed(seed, uint64(i))
			c := rep.setup(netchord.TCP{}, jobHosts, sub)
			if c == nil {
				return rep
			}
			time.Sleep(warmup)
			j := runJob(c, netchord.TCP{}, sub, nil)
			rep.MemMB = max(rep.MemMB, liveHeapMB())
			c.Close()
			rep.addJob(j)
			for _, s := range quietSlices(j.stamps, j.polls) {
				quiet++
				if len(s.calls) > 0 {
					pollP50 = append(pollP50, quantile(latencies(s.calls, -1), 0.5))
					pollP90 = append(pollP90, quantile(latencies(s.calls, -1), 0.9))
				}
			}
			submitLat = append(submitLat, j.submitLat...)
			busy += float64(j.busyTicks)
			jobS += j.jobS
			tickUS = append(tickUS, tickTimesUS(j.marks)...)
			rep.Info[fmt.Sprintf("job_s.%d", i)] = j.jobS
			rep.Info[fmt.Sprintf("busy_ticks.%d", i)] = float64(j.busyTicks)
		}
		rep.E2E["ops_per_s"] = ratio(busy, jobS)
		rep.E2E["p50_us"] = quantile(tickUS, 0.5)
		rep.E2E["p90_us"] = quantile(tickUS, 0.9)
		rep.Info["tick_samples"] = float64(len(tickUS))
		rep.Info["poll_p50_us"] = median(pollP50)
		rep.Info["poll_p90_us"] = median(pollP90)
		rep.Info["quiet_slices"] = float64(quiet)
		rep.Info["job_s"] = jobS / jobLayouts
		rep.Info["submit_p50_us"] = quantile(durationsUS(submitLat), 0.5)
		rep.Info["submit_p90_us"] = quantile(durationsUS(submitLat), 0.9)
		return rep
	}

	// Traced run: an untraced job for the timings, then a traced job on a
	// counting transport for the counters and spans.
	c := rep.setup(netchord.TCP{}, jobHosts, seed)
	if c == nil {
		return rep
	}
	time.Sleep(warmup)
	a := snapshot(c, nil, nil)
	plain := runJob(c, netchord.TCP{}, seed, nil)
	b := snapshot(c, nil, nil)
	c.Close()
	rep.addJob(plain)
	for k, v := range goLayer(a, b) {
		rep.Layer[k] = v
	}
	rep.Layer["go.allocs_per_tick"] = ratio(float64(plain.mallocs), float64(plain.busyTicks))
	rep.Layer["proc.cpu_ms_per_op"] = ratio(float64((b.cpu-a.cpu).Nanoseconds())/1e6, jobSubmits)
	rep.Layer["netchord.submit_p50_us"] = quantile(durationsUS(plain.submitLat), 0.5)
	rep.Layer["netchord.tick_lag"] = ratio(plain.jobS, float64(plain.busyTicks)*tick)
	rep.Layer["collector.reports_per_tick"] = ratio(float64(plain.reports), float64(plain.busyTicks))
	rep.Layer["collector.busy_ticks"] = float64(plain.busyTicks)

	ct := &countingTransport{inner: netchord.TCP{}}
	if c = rep.setup(ct, jobHosts, seed); c == nil {
		return rep
	}
	time.Sleep(warmup - idleWindow)
	i0 := snapshot(c, nil, ct)
	time.Sleep(idleWindow)
	i1 := snapshot(c, nil, ct)
	tracer := NewTracer(i1.at)
	tj := runJob(c, ct, seed, tracer)
	l1 := snapshot(c, nil, ct)
	c.Close()
	rep.addJob(tj)
	for k, v := range netLayer(i0, i1, i1, l1, jobSubmits) {
		rep.Layer[k] = v
	}
	rep.Layer["netchord.rpc.retries"] += float64(tj.clientRPC.Retries)
	rep.Layer["netchord.rpc.timeouts"] += float64(tj.clientRPC.Timeouts)
	rep.Layer["netchord.rpc.reconnects"] += float64(tj.clientRPC.Reconnects)
	rep.Layer["obs.trace_overhead_frac"] = ratio(tj.jobS, plain.jobS) - 1
	if err := tracer.WriteJSONL(spansPath); err != nil {
		rep.fail(0, "%v", err)
	}
	rep.Self = tracer.SelfTimes()
	return rep
}

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = micros(d)
	}
	return out
}
