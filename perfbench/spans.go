package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// maxKeptSpans caps the spans one tracer keeps for the JSONL output. A
// scale-100k trial makes about three million World calls; their
// durations and self times are still aggregated, only the records past
// the cap are not kept.
const maxKeptSpans = 200000

// Span is one timed call across a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is the enclosing span's
// ID (0 for a root); Op ties the spans of one live operation together.
type Span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op,omitempty"`
}

// layerTime aggregates every span of one name: how many, their summed
// duration, and their summed self time (duration minus the part covered
// by child spans).
type layerTime struct {
	Calls int64
	Total time.Duration
	Self  time.Duration
}

type frame struct {
	id, op int64
	name   string
	start  time.Time
	child  time.Duration
}

// Tracer records nested spans for one goroutine. Self time is computed
// as each span closes, so it covers every span even past maxKeptSpans.
type Tracer struct {
	epoch   time.Time
	nextID  int64
	stack   []frame
	kept    []Span
	dropped int64
	byName  map[string]*layerTime
}

// NewTracer returns a tracer whose span times count from epoch; tracers
// that share an epoch can be merged into one timeline.
func NewTracer(epoch time.Time) *Tracer {
	return &Tracer{epoch: epoch, byName: make(map[string]*layerTime)}
}

// Begin opens a span named name, nested in the innermost open span.
// Begin and End on a nil tracer do nothing, so untraced runs share the
// traced code path.
func (t *Tracer) Begin(name string, op int64) {
	if t == nil {
		return
	}
	t.nextID++
	t.stack = append(t.stack, frame{id: t.nextID, op: op, name: name, start: time.Now()})
}

// End closes the innermost open span.
func (t *Tracer) End() {
	if t == nil {
		return
	}
	end := time.Now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := end.Sub(f.start)
	var parent int64
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += dur
		parent = t.stack[n-1].id
	}
	lt := t.byName[f.name]
	if lt == nil {
		lt = &layerTime{}
		t.byName[f.name] = lt
	}
	lt.Calls++
	lt.Total += dur
	lt.Self += dur - f.child
	t.keep(Span{ID: f.id, Name: f.name, Start: f.start.Sub(t.epoch).Nanoseconds(),
		End: end.Sub(t.epoch).Nanoseconds(), Parent: parent, Op: f.op})
}

// Add records a span measured elsewhere (the tick spans rebuilt from
// the timing sink); it takes part in no self-time accounting.
func (t *Tracer) Add(name string, start, end time.Time, parent int64) {
	t.nextID++
	t.keep(Span{ID: t.nextID, Name: name, Start: start.Sub(t.epoch).Nanoseconds(),
		End: end.Sub(t.epoch).Nanoseconds(), Parent: parent})
}

func (t *Tracer) keep(s Span) {
	if len(t.kept) >= maxKeptSpans {
		t.dropped++
		return
	}
	t.kept = append(t.kept, s)
}

// Layer returns the aggregate for one span name (zero if none closed).
func (t *Tracer) Layer(name string) layerTime {
	if lt := t.byName[name]; lt != nil {
		return *lt
	}
	return layerTime{}
}

// Merge folds other's spans and aggregates into t. other must share t's
// epoch; its span IDs are shifted past t's so they stay unique.
func (t *Tracer) Merge(other *Tracer) {
	shift := t.nextID
	for _, s := range other.kept {
		s.ID += shift
		if s.Parent != 0 {
			s.Parent += shift
		}
		t.keep(s)
	}
	t.dropped += other.dropped
	t.nextID += other.nextID
	for name, lt := range other.byName {
		mine := t.byName[name]
		if mine == nil {
			mine = &layerTime{}
			t.byName[name] = mine
		}
		mine.Calls += lt.Calls
		mine.Total += lt.Total
		mine.Self += lt.Self
	}
}

// SelfTimes lists every span name's calls, total and self seconds.
func (t *Tracer) SelfTimes() map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(t.byName))
	for name, lt := range t.byName {
		out[name] = map[string]float64{
			"calls":   float64(lt.Calls),
			"total_s": lt.Total.Seconds(),
			"self_s":  lt.Self.Seconds(),
		}
	}
	return out
}

// WriteJSONL writes the kept spans, one JSON object a line, followed by
// a summary line with the dropped count and the per-name self times.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.encode(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

func (t *Tracer) encode(f *os.File) error {
	w := bufio.NewWriterSize(f, 1<<16)
	enc := json.NewEncoder(w)
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	summary := map[string]any{"kind": "summary", "spans_kept": len(t.kept),
		"spans_dropped": t.dropped, "self": t.SelfTimes()}
	if err := enc.Encode(summary); err != nil {
		return err
	}
	return w.Flush()
}
