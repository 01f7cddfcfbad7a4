package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Allocs and Bytes are process-wide runtime.MemStats deltas across the
// call, so goroutines running beside it (the server, the load generator)
// are counted too.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"` // index of the parent span, -1 for a root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Allocs uint64        `json:"allocs"`
	Bytes  uint64        `json:"bytes"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer holds the spans of a traced run in memory until the run ends.
// A nil tracer records nothing and costs one branch per call.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id,
// or -1 when tracing is off.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.origin), Allocs: m.Mallocs, Bytes: m.TotalAlloc})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id]
	sp.End = now
	sp.Allocs = m.Mallocs - sp.Allocs
	sp.Bytes = m.TotalAlloc - sp.Bytes
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// unionLen is the total time covered by the intervals, counting overlaps
// once.
func unionLen(iv [][2]time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]time.Duration(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total time.Duration
	lo, hi := s[0][0], s[0][1]
	for _, x := range s[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// childCover is the part of span i's interval its direct children cover.
func childCover(spans []span, i int) time.Duration {
	var iv [][2]time.Duration
	p := spans[i]
	for _, c := range spans {
		if c.Parent != i {
			continue
		}
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	return unionLen(iv)
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover.
func selfTimes(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - childCover(spans, i)
	}
	return out
}

// coverage is the share of the summed duration of every span named one
// of roots that their direct children cover.
func coverage(spans []span, roots ...string) float64 {
	var covered, whole time.Duration
	for i, s := range spans {
		if slices.Contains(roots, s.Name) {
			covered += childCover(spans, i)
			whole += s.dur()
		}
	}
	return ratio(float64(covered), float64(whole))
}

// layer aggregates every span of one name.
type layer struct {
	Name          string
	Count         int
	Total, Self   time.Duration
	Allocs, Bytes uint64
}

// layers aggregates spans by name, in order of first appearance.
func layers(spans []span) []layer {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []layer
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, layer{Name: s.Name})
		}
		l := &out[j]
		l.Count++
		l.Total += s.dur()
		l.Self += self[i]
		l.Allocs += s.Allocs
		l.Bytes += s.Bytes
	}
	return out
}

// total returns the summed duration of every span named name.
func total(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// writeLedger prints the per-layer ledger: calls, total and self time,
// allocations and allocated bytes.
func writeLedger(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-28s %6s %12s %12s %12s %10s\n", "layer", "calls", "total_ms", "self_ms", "allocs", "alloc_mb")
	for _, l := range layers(spans) {
		fmt.Fprintf(w, "%-28s %6d %12.3f %12.3f %12d %10.2f\n", l.Name, l.Count, ms(l.Total), ms(l.Self), l.Allocs, float64(l.Bytes)/(1<<20))
	}
}

// writeSpans writes the spans as JSON to path.
func writeSpans(path string, spans []span) error {
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
