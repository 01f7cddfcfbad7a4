package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// A percentile is reported only when at least ten samples lie beyond it.
func TestHighestHeldPercentile(t *testing.T) {
	if got := beyond(100, 0.9); got != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", got)
	}
	if holds(99, 0.9) || !holds(100, 0.9) {
		t.Error("the 90th percentile must need exactly 100 samples")
	}
	if minSamples(0.9) != 100 || minSamples(0.99) != 1000 || minSamples(0.5) != 20 {
		t.Errorf("minSamples = %d, %d, %d", minSamples(0.9), minSamples(0.99), minSamples(0.5))
	}
	qs := []float64{0.5, 0.9, 0.98, 0.99}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{{10, 0, false}, {20, 0.5, true}, {300, 0.9, true}, {500, 0.98, true}, {1000, 0.99, true}} {
		got, ok := highestHeld(tc.n, qs)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestHeld(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func ms10(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// Windowed quantiles take each window's quantile and report their
// median, so one slow window does not move the result; one window is the
// pooled quantile.
func TestWindowedQuantiles(t *testing.T) {
	var xs []float64
	for w := 0; w < 5; w++ {
		for i := 1; i <= 10; i++ {
			x := float64(i)
			if w == 3 {
				x *= 100 // a slow spell
			}
			xs = append(xs, x)
		}
	}
	xs = append(xs, 1000, 1000) // a remainder joins the last window
	got := windowedQuantiles(xs, 10, 0.5, 0.9)
	if got[0] != 5 || got[1] != 9 {
		t.Errorf("windowed p50, p90 = %v, want 5, 9", got)
	}
	pooled := windowedQuantiles(xs, len(xs), 0.5, 0.9)
	sorted := sortedCopy(xs)
	if pooled[0] != percentile(sorted, 0.5) || pooled[1] != percentile(sorted, 0.9) {
		t.Errorf("one window = %v, want the pooled quantiles", pooled)
	}
	res := newResult()
	ops := make([]time.Duration, 40)
	for i := range ops {
		ops[i] = time.Duration(i%20+1) * time.Millisecond
	}
	if err := opPercentiles(res, ops, 0.5, 20); err != nil || res.e2e["op_p50_ms"] != 10 || res.e2e["op_tail_ms"] != 10 {
		t.Errorf("opPercentiles over windows of 20: %v, %v", res.e2e, err)
	}
	if err := opPercentiles(res, ops, 0.9, 20); err == nil {
		t.Error("windows of 20 cannot hold a 90th percentile")
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: ms10(0), End: ms10(100)},
		{Name: "a", Parent: 0, Start: ms10(10), End: ms10(40)},
		{Name: "b", Parent: 0, Start: ms10(30), End: ms10(60)}, // overlaps a (another goroutine)
		{Name: "a.child", Parent: 1, Start: ms10(15), End: ms10(20)},
		{Name: "c", Parent: 0, Start: ms10(90), End: ms10(120)}, // runs past its parent
	}
	self := selfTimes(spans)
	want := []time.Duration{ms10(40), ms10(25), ms10(30), ms10(5), ms10(30)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	if got := coverage(spans, "root"); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("coverage = %v, want 0.6", got)
	}
	// Coverage sums over every root of the name.
	two := append(spans, span{Name: "root", Parent: -1, Start: ms10(200), End: ms10(300)},
		span{Name: "a", Parent: 5, Start: ms10(200), End: ms10(300)})
	if got := coverage(two, "root"); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("coverage over two roots = %v, want 0.8", got)
	}
	// Roots of several names are summed together.
	other := append(two, span{Name: "other", Parent: -1, Start: ms10(400), End: ms10(500)})
	if got := coverage(other, "root", "other"); math.Abs(got-0.8*200/300) > 1e-9 {
		t.Errorf("coverage over two root names = %v, want %v", got, 0.8*200/300)
	}
	ls := layers(two)
	if ls[1].Name != "a" || ls[1].Count != 2 || ls[1].Total != ms10(130) || ls[1].Self != ms10(125) {
		t.Errorf("layer a = %+v", ls[1])
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1)
	tr.do("child", root, func() { _ = make([]byte, 1<<20) })
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != 0 || spans[1].Bytes < 1<<20 || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	var off *tracer
	if id := off.begin("x", -1); id != -1 {
		t.Errorf("nil tracer began span %d", id)
	}
	off.do("x", -1, func() {})
}

func TestDueTimeAccounting(t *testing.T) {
	t0 := time.Now()
	at := func(n int) time.Time { return t0.Add(ms10(n)) }
	early := sample{due: at(10), free: at(5), sent: at(11), done: at(13)}
	if early.latency() != ms10(3) || early.queued() != ms10(1) {
		t.Errorf("early: latency %v queued %v", early.latency(), early.queued())
	}
	if l, ok := early.late(); !ok || l != ms10(1) {
		t.Errorf("early: late %v %v", l, ok)
	}
	busy := sample{due: at(10), free: at(30), sent: at(30), done: at(31)}
	if busy.latency() != ms10(21) || busy.queued() != ms10(20) {
		t.Errorf("busy: latency %v queued %v", busy.latency(), busy.queued())
	}
	if _, ok := busy.late(); ok {
		t.Error("a request that found its connection busy counted as generator lateness")
	}
	backlog := []sample{
		{due: at(0), sent: at(0)},
		{due: at(10), sent: at(50)},
		{due: at(20), sent: at(51)},
		{due: at(30), sent: at(52)},
	}
	if got := maxBacklog(backlog); got != 2 {
		t.Errorf("maxBacklog = %d, want 2", got)
	}
}

// A stalled request delays the requests queued behind it on the same
// connection; their latency counts from their due times.
func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stall" {
			time.Sleep(100 * time.Millisecond)
		}
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	reqs := []request{{path: "/stall"}, {path: "/a"}, {path: "/b"}, {path: "/c"}}
	start := time.Now().Add(10 * time.Millisecond)
	samples := openLoop(context.Background(), srv.Client(), srv.URL, reqs, 100, 1, start, time.Time{})
	for i, s := range samples {
		if !s.ok {
			t.Fatalf("request %d failed", i)
		}
		if want := start.Add(ms10(10 * i)); !s.due.Equal(want) {
			t.Errorf("request %d due %v after start, want %v", i, s.due.Sub(start), want.Sub(start))
		}
	}
	// Request 3 was due 30 ms after start but could not be sent before
	// the stall ended at about 100 ms.
	if q := samples[3].queued(); q < 60*time.Millisecond {
		t.Errorf("request 3 queued %v, want ≥ 60ms", q)
	}
	if samples[3].latency() < samples[3].done.Sub(samples[3].sent)+60*time.Millisecond {
		t.Errorf("request 3 latency %v does not include its queueing", samples[3].latency())
	}
	if maxBacklog(samples) < 2 {
		t.Errorf("maxBacklog = %d, want ≥ 2", maxBacklog(samples))
	}
}

// A closed loop keeps every connection busy and stops sending at stopAt.
func TestClosedLoopStopsAtDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	reqs := make([]request, 1000)
	start := time.Now()
	samples := openLoop(context.Background(), srv.Client(), srv.URL, reqs, math.Inf(1), 2, start, start.Add(100*time.Millisecond))
	if len(samples) < 10 || len(samples) > 60 {
		t.Fatalf("%d requests sent in 100 ms over 2 connections at 5 ms each", len(samples))
	}
	for i, s := range samples {
		if !s.ok || !s.due.Equal(start) || s.sent.After(start.Add(100*time.Millisecond)) {
			t.Fatalf("request %d: %+v", i, s)
		}
	}
}

func TestRequestMixDependsOnSeedOnly(t *testing.T) {
	names := []string{"a.ru", "b.ru", "c.ru"}
	a, b := requestMix(7, 500, names), requestMix(7, 500, names)
	cold := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between equal seeds", i)
		}
		if a[i].cold {
			cold++
		}
	}
	if cold < 70 || cold > 130 {
		t.Errorf("%d of 500 requests are cold, want about 100", cold)
	}
	c := requestMix(8, 500, names)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds gave the same mix")
	}
}

func TestRecordDigestGatesLaterRuns(t *testing.T) {
	cfg := config{seed: 3, dir: filepath.Join(t.TempDir(), "run")}
	res := newResult()
	for _, d := range []string{"abc", "abc", "abd"} {
		if err := recordDigest(res, cfg, "w", 10, d); err != nil {
			t.Fatal(err)
		}
	}
	if len(res.gates) != 3 || !res.gateFailed || res.failed != 1 || !strings.Contains(res.gates[2], "FAILED") {
		t.Fatalf("gates = %q", res.gates)
	}
}

// The metric lists of the program must match BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{{"--workload", "nope"}, {"--workload", "collect", "--trace", "2"}, {"--workload", "collect", "--seconds", "0"}} {
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("run(%q) = 0", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("rejected runs printed %q", out.String())
	}
}

// The smoke tests run every workload at a tiny scale through run(),
// untraced and traced, and require every correctness gate to pass and
// the result line to carry every declared metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs collect whole studies")
	}
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "5", "--seconds", "1", "--trace", trace, "--scale", "20000", "--out", out}
				code := run(args, &stdout, &stderr)
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				var line resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 || len(line.Metrics) != len(want) {
					t.Fatalf("result %+v", line)
				}
				gates := 0
				for _, l := range lines {
					if strings.HasPrefix(l, "gate ") {
						gates++
						if !strings.Contains(l, " ok ") {
							t.Errorf("%s", l)
						}
					}
				}
				if gates == 0 {
					t.Error("no correctness gate ran")
				}
				if trace == "1" && line.Metrics["trace.coverage_pct"].Value < 100*minCoverage {
					t.Errorf("coverage %v", line.Metrics["trace.coverage_pct"].Value)
				}
			})
		}
	}

	// A failed gate still prints the result line, marked incorrect, and
	// makes the run exit non-zero.
	digest := filepath.Join(out, "digests", "reanalyze-scale20000-seed5")
	if err := os.WriteFile(digest, []byte("not-the-digest"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "reanalyze", "--seed", "5", "--seconds", "1", "--scale", "20000", "--out", out}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if code == 0 || line.Correct || line.Failed != 1 {
		t.Errorf("run with a wrong recorded digest: exit %d, result %+v", code, line)
	}
}
