package main

import (
	"bufio"
	"container/heap"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"whereru/internal/core"
	"whereru/internal/netsim"
	"whereru/internal/openintel"
	"whereru/internal/serve"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/stream"
	"whereru/internal/world"
)

// The live-serve workload: conflict-window live monitoring. Set-up
// collects a 1:8000 netnod-depeering journal with daily dense sweeps. The
// timed phase loads its monthly prefix into a server (cold start), then
// follows the journal while the benchmark appends the daily segments on a
// fixed schedule and an open-loop generator sends a fixed rate of
// dashboard (warm) and explorer (cold) requests.
//
// Requests that arrive while a fold is applied wait for it, so the
// latency percentiles above the share of the phase spent folding are the
// fold's, and they move with the host's speed far more than the fold
// does. At 1:4000 and 15 s the folds took 12-16% of the phase, and a
// host slowed by a fifth pushed the 70th percentile into them (+57%).
// At 1:8000 and 20 s they take about 8%, the windowed 90th percentile
// is fold-bound and the 75th is not. The bounded tail metric is
// therefore the 75th percentile, below the fold-bound part; the
// fold-bound tails (warm_p99_ms, cold_p99_ms, fresh_p90_ms) are printed
// and traced.
const (
	liveScale    = 8000
	liveTail     = 0.75
	liveScenario = "netnod-depeering"
	// liveSaturation is the followed server's saturation throughput at
	// 1:8000 on a 2-vCPU host, in requests per second: the rounded
	// median, over seeds 1-3, of the rate at which a closed loop over two
	// connections completed the request mix in 20 s while the segments
	// were appended and folded (--rate 0; 12,309, 11,209 and 11,236).
	liveSaturation = 11200
	// liveRate is one tenth of saturation, so a request seldom queues
	// behind other requests: op_* measure service time and waiting for
	// folds, the interference this workload is about, not load queueing.
	liveRate  = liveSaturation / 10 // requests per second, open loop
	liveLoads = 3                   // cold server starts timed for load_s
	livePoll  = 2 * time.Millisecond
	liveDrain = 20 * time.Second // longest wait for the last stream events
	// liveMovementCalls bounds the explorer movement analyses a traced
	// run times outside the server.
	liveMovementCalls = 32
)

// liveDenseFrom is where the monthly prefix ends and the appended daily
// segments begin.
var liveDenseFrom = simtime.Date(2022, 2, 1)

// warmPaths are the dashboard endpoints (the whereru-loadgen warm set):
// cached, and patched in place by follow mode.
var warmPaths = []string{
	"/api/v1/figures/1",
	"/api/v1/figures/2",
	"/api/v1/figures/3",
	"/api/v1/figures/4",
	"/api/v1/figures/5",
	"/api/v1/figures/reachability",
	"/api/v1/figures/latency",
	"/api/v1/hosting",
	"/api/v1/sweeps",
}

// coldASNs rotate through explorer movement queries.
var coldASNs = []uint32{197695, 13335, 24940, 16509, 20764, 8075, 15169, 12389}

func liveOptions(cfg config) core.Options {
	return core.Options{
		World:     world.Config{Seed: cfg.seed, Scale: cfg.scaleOr(liveScale), RFShare: 0.10},
		DenseStep: 1,
		Workers:   runtime.NumCPU(),
		CollectMX: true,
		Scenario:  liveScenario,
	}
}

// request is one scheduled GET of the open-loop mix. A movement query
// also keeps its arguments, so the traced run can time the analysis call
// it makes.
type request struct {
	path string
	cold bool
	asn  uint32
	from simtime.Day
}

// requestMix returns n requests, 80% warm and 20% cold, drawn from seed
// alone: cold requests alternate between movement queries with a
// rotating ASN and start day and timelines of names drawn from domains.
func requestMix(seed int64, n int, domains []string) []request {
	rng := rand.New(rand.NewSource(seed))
	span := int(simtime.StudyEnd - simtime.StudyStart)
	out := make([]request, n)
	for i := range out {
		if rng.Intn(5) != 0 {
			out[i] = request{path: warmPaths[rng.Intn(len(warmPaths))]}
			continue
		}
		if rng.Intn(2) == 0 || len(domains) == 0 {
			day := simtime.StudyStart.Add(rng.Intn(span))
			asn := coldASNs[rng.Intn(len(coldASNs))]
			out[i] = request{path: fmt.Sprintf("/api/v1/movement?asn=%d&from=%s", asn, day), cold: true, asn: asn, from: day}
		} else {
			out[i] = request{path: "/api/v1/domains/" + url.PathEscape(domains[rng.Intn(len(domains))]) + "/timeline", cold: true}
		}
	}
	return out
}

// sample is one request as the generator saw it. Latency counts from
// due, the time the schedule said to send it, so a stall that delays
// later sends is charged to them.
type sample struct {
	cold            bool
	due, free, sent time.Time // free: when the sending connection became idle
	done            time.Time
	ok              bool
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// queued is how long the request waited past its due time to be sent.
func (s sample) queued() time.Duration { return max(0, s.sent.Sub(s.due)) }

// late is the generator's own lag: how far past the due time an idle
// connection woke to send. Requests that found their connection busy at
// the due time count as queued, not late.
func (s sample) late() (time.Duration, bool) {
	if s.free.After(s.due) {
		return 0, false
	}
	return max(0, s.sent.Sub(s.due)), true
}

// maxBacklog is the largest number of requests that were due but not yet
// sent at any request's due time. Samples are in schedule order, so due
// times never decrease: a request sent by one due time is sent by every
// later one and leaves the heap of unsent requests for good.
func maxBacklog(samples []sample) int {
	best := 0
	unsent := &timeHeap{}
	for _, s := range samples {
		for unsent.Len() > 0 && !(*unsent)[0].After(s.due) {
			heap.Pop(unsent)
		}
		best = max(best, unsent.Len())
		heap.Push(unsent, s.sent)
	}
	return best
}

// timeHeap is a min-heap of times.
type timeHeap []time.Time

func (h timeHeap) Len() int           { return len(h) }
func (h timeHeap) Less(i, j int) bool { return h[i].Before(h[j]) }
func (h timeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timeHeap) Push(x any)        { *h = append(*h, x.(time.Time)) }
func (h *timeHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// openLoop sends reqs on a fixed schedule, request i due at
// start + i/rate, over conns connections. A connection sends the next
// unsent request once it is idle, waiting for its due time when early.
// A rate of +Inf makes every request due at start: a closed loop that
// keeps each connection busy. No request is sent after stopAt, unless it
// is zero; the samples returned are those of the requests sent.
func openLoop(ctx context.Context, client *http.Client, base string, reqs []request, rate float64, conns int, start, stopAt time.Time) []sample {
	samples := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				s := sample{cold: reqs[i].cold, free: time.Now()}
				s.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(s.due); d > 0 {
					time.Sleep(d)
				}
				s.sent = time.Now()
				if !stopAt.IsZero() && s.sent.After(stopAt) {
					return
				}
				s.ok = get(ctx, client, base+reqs[i].path) == nil
				s.done = time.Now()
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	sent := samples[:0]
	for _, s := range samples {
		if !s.sent.IsZero() {
			sent = append(sent, s)
		}
	}
	return sent
}

// get fetches url and drains the body, failing on any status but 200.
func get(ctx context.Context, client *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return nil
}

// liveServer is a loaded server with the engine primed for follow mode.
type liveServer struct {
	study  *core.Study
	replay *store.JournalReplay
	eng    *stream.Engine
	srv    *serve.Server
}

// load starts a server cold from the journal at path, through
// core.LoadCheckpointReplay, core.FoldReplay and serve.New. With a
// tracer it makes the same calls LoadCheckpointReplay is made of, each in
// a span under parent.
func load(opts core.Options, path string, tr *tracer, parent int) (*liveServer, error) {
	ls := &liveServer{}
	var err error
	if tr == nil {
		if ls.study, ls.replay, err = core.LoadCheckpointReplay(opts, path); err != nil {
			return nil, err
		}
		ls.eng = ls.study.NewStreamEngine()
		if err := core.FoldReplay(ls.eng, ls.replay); err != nil {
			return nil, err
		}
		ls.srv = serve.New(ls.study, serve.Options{})
		return ls, nil
	}
	tr.do("world.build", parent, func() { ls.study, err = core.New(opts) })
	if err != nil {
		return nil, err
	}
	tr.do("store.replay", parent, func() { ls.replay, err = store.VerifyJournal(path) })
	if err != nil {
		return nil, err
	}
	tr.do("store.ingest", parent, func() {
		pipe := &openintel.Pipeline{Store: ls.study.Store}
		ls.study.Stats = pipe.ReplayJournal(ls.replay)
		ls.study.Sweeps = ls.study.Store.Sweeps()
	})
	tr.do("stream.prime", parent, func() {
		ls.eng = ls.study.NewStreamEngine()
		err = core.FoldReplay(ls.eng, ls.replay)
	})
	if err != nil {
		return nil, err
	}
	tr.do("serve.new", parent, func() { ls.srv = serve.New(ls.study, serve.Options{}) })
	return ls, nil
}

// liveSetup is what set-up prepares for the timed phase.
type liveSetup struct {
	full, live, prefix string // journals: complete, to be followed, prefix only
	rest               []segment
}

// segment is one journal record still to be appended. Its measurements
// wait in the compact batch encoding, so the benchmark's own copy of the
// incoming data adds little to the heap the server's collector scans.
type segment struct {
	day     simtime.Day
	missing bool
	stats   store.JournalStats
	batch   []byte
}

func encodeSegment(rec store.JournalSweep) (segment, error) {
	seg := segment{day: rec.Day, missing: rec.Missing, stats: rec.Stats}
	if rec.Missing {
		return seg, nil
	}
	var err error
	seg.batch, err = store.EncodeMeasurementBatch(rec.Day, rec.Measurements)
	return seg, err
}

func (seg segment) record() (store.JournalSweep, error) {
	rec := store.JournalSweep{Day: seg.day, Missing: seg.missing, Stats: seg.stats}
	if seg.missing {
		return rec, nil
	}
	day, ms, err := store.DecodeMeasurementBatch(seg.batch)
	if err == nil && day != seg.day {
		err = fmt.Errorf("segment of %s decoded as %s", seg.day, day)
	}
	rec.Measurements = ms
	return rec, err
}

// prepare collects the complete journal and writes its monthly prefix to
// the journal the server will follow (and, for the traced run's
// standalone fold, to a second copy).
func prepare(ctx context.Context, opts core.Options, dir string) (liveSetup, error) {
	ls := liveSetup{full: filepath.Join(dir, "full.wrjl"), live: filepath.Join(dir, "live.wrjl"), prefix: filepath.Join(dir, "prefix.wrjl")}
	o := opts
	o.CheckpointPath = ls.full
	s, err := core.New(o)
	if err != nil {
		return ls, err
	}
	if err := s.Collect(ctx); err != nil {
		return ls, err
	}
	replay, err := store.VerifyJournal(ls.full)
	if err != nil {
		return ls, err
	}
	var prefix []store.JournalSweep
	for _, rec := range replay.Sweeps {
		if rec.Day < liveDenseFrom {
			prefix = append(prefix, rec)
			continue
		}
		seg, err := encodeSegment(rec)
		if err != nil {
			return ls, err
		}
		ls.rest = append(ls.rest, seg)
	}
	for _, path := range []string{ls.live, ls.prefix} {
		if err := writeJournal(path, prefix); err != nil {
			return ls, err
		}
	}
	return ls, nil
}

func writeJournal(path string, recs []store.JournalSweep) error {
	j, err := store.CreateJournal(path)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := j.AppendSweep(rec); err != nil {
			j.Close()
			return err
		}
	}
	return j.Close()
}

// handlerSwap lets one listener serve whichever server loaded last.
type handlerSwap struct{ cur atomic.Pointer[serve.Server] }

func (h *handlerSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.cur.Load().ServeHTTP(w, r) }

// subscriber reads sweep events from the SSE stream and records when
// each arrives, keyed by day.
type subscriber struct {
	mu       sync.Mutex
	arrivals map[string][]time.Time
	total    int
	changed  chan struct{}
}

// subscribe connects to the sweep stream and returns once the server has
// acknowledged the subscription; events are read until ctx ends.
func subscribe(ctx context.Context, base string) (*subscriber, func(), error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/stream/sweeps", nil)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, nil, fmt.Errorf("stream subscription: %s", resp.Status)
	}
	sub := &subscriber{arrivals: map[string][]time.Time{}, changed: make(chan struct{}, 1)}
	rd := bufio.NewReader(resp.Body)
	if _, err := rd.ReadString('\n'); err != nil { // ": connected generation=N"
		resp.Body.Close()
		cancel()
		return nil, nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				return
			}
			data, ok := strings.CutPrefix(strings.TrimSpace(line), "data: ")
			if !ok {
				continue
			}
			at := time.Now()
			var ev struct {
				Day string `json:"day"`
			}
			if json.Unmarshal([]byte(data), &ev) != nil {
				continue
			}
			sub.mu.Lock()
			sub.arrivals[ev.Day] = append(sub.arrivals[ev.Day], at)
			sub.total++
			sub.mu.Unlock()
			select {
			case sub.changed <- struct{}{}:
			default:
			}
		}
	}()
	stop := func() {
		cancel()
		resp.Body.Close()
		<-done
	}
	return sub, stop, nil
}

// waitFor blocks until n events have arrived or the deadline passes.
func (s *subscriber) waitFor(n int, deadline time.Duration) {
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for {
		s.mu.Lock()
		got := s.total
		s.mu.Unlock()
		if got >= n {
			return
		}
		select {
		case <-s.changed:
		case <-timer.C:
			return
		}
	}
}

// scrape reads the numeric samples of a Prometheus text page.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] += v
		}
	}
	return out, sc.Err()
}

func runLiveServe(ctx context.Context, cfg config, res *result) error {
	opts := liveOptions(cfg)
	var set liveSetup
	setup, err := timeSetup(collectedSetups, func() error {
		var err error
		set, err = prepare(ctx, opts, cfg.dir)
		return err
	})
	if err != nil {
		return err
	}
	res.e2e["setup_s"] = setup
	res.fig("setup_s", setup, "s", collectedSetups)
	if !holds(len(set.rest), 0.90) {
		return fmt.Errorf("only %d segments to append; fresh_p90_ms needs %d", len(set.rest), minSamples(0.90))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	swap := &handlerSwap{}
	hs := &http.Server{Handler: swap}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	defer func() {
		hs.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	conns := runtime.NumCPU()
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	defer client.CloseIdleConnections()

	rt := readRuntime()
	var tr *tracer
	timed := -1
	// Cold starts: every load but a traced run's last is untraced; the
	// last one stays up and follows the journal.
	var loads []float64
	var ls *liveServer
	for i := 0; i < liveLoads; i++ {
		// Each cold start begins from a settled heap.
		ls = nil
		swap.cur.Store(nil)
		settle(i == liveLoads-1)
		var ltr *tracer
		if cfg.trace && i == liveLoads-1 {
			tr = newTracer()
			timed = tr.begin("live.load", -1)
			ltr = tr
		}
		t0 := time.Now()
		if ls, err = load(opts, set.live, ltr, timed); err != nil {
			return err
		}
		swap.cur.Store(ls.srv)
		ltr.do("serve.first_response", timed, func() { err = get(ctx, client, base+warmPaths[0]) })
		if err != nil {
			return err
		}
		loads = append(loads, time.Since(t0).Seconds())
	}
	tr.end(timed)
	loadS := median(loads)
	if cfg.trace {
		loadS = median(loads[:liveLoads-1])
		res.layer["serve.load_ms"] = 1000 * loads[liveLoads-1]
		res.layer["world.build_ms"] = ms(total(tr.snapshot(), "world.build"))
		res.layer["world.alloc_mb"] = allocMB(tr.snapshot(), "world.build")
		res.layer["store.replay_ms"] = ms(total(tr.snapshot(), "store.replay"))
		res.layer["store.ingest_ms"] = ms(total(tr.snapshot(), "store.ingest"))
		res.layer["stream.prime_ms"] = ms(total(tr.snapshot(), "stream.prime"))
		res.layer["serve.new_ms"] = ms(total(tr.snapshot(), "serve.new"))
	}
	res.fig("load_s", loadS, "s", len(loads))
	// rss_peak_mb covers the follow phase, the server's steady state,
	// from a settled heap: without the cold starts' garbage its range
	// over two runs each of two seeds narrowed from 179-202 MB to
	// 174-184 MB.
	res.fig("load_rss_peak_mb", peakRSSMB(), "MB", 1)
	settle(true)

	domains := ls.study.Store.Domains()
	live, err := followPhase(ctx, cfg, set, ls, client, base, domains, tr)
	if err != nil {
		return err
	}
	res.e2e["rss_peak_mb"] = peakRSSMB()

	// Figures and end-to-end metrics.
	var all, warm, cold []time.Duration
	var bad int
	for _, s := range live.samples {
		if !s.ok {
			bad++
		}
		all = append(all, s.latency())
		if s.cold {
			cold = append(cold, s.latency())
		} else {
			warm = append(warm, s.latency())
		}
	}
	if err := opPercentiles(res, all, liveTail, liveWindow(cfg.rate)); err != nil {
		return err
	}
	missed := 0
	var fresh []time.Duration
	for _, seg := range set.rest {
		day := seg.day.String()
		arr := live.events[day]
		if len(arr) == 0 {
			missed++
			continue
		}
		fresh = append(fresh, arr[0].Sub(live.appended[day]))
	}
	res.attempted += int64(len(live.samples) + len(set.rest))
	res.failed += int64(bad + missed)
	tail := func(name string, ds []time.Duration, qs ...float64) {
		sorted := durationsMS(ds)
		res.fig(name+"_p50_ms", percentile(sorted, 0.5), "ms", len(sorted))
		if q, ok := highestHeld(len(sorted), qs); ok {
			res.fig(fmt.Sprintf("%s_p%02.0f_ms", name, 100*q), percentile(sorted, q), "ms", len(sorted))
		}
	}
	tail("warm", warm, 0.9, 0.99)
	tail("cold", cold, 0.9, 0.97, 0.99)
	tail("fresh", fresh, 0.9)
	res.fig("throughput_rps", live.throughput(), "1/s", len(live.samples))
	res.fig("failed_share", ratio(float64(bad+missed), float64(len(live.samples)+len(set.rest))), "ratio", len(live.samples)+len(set.rest))
	res.fig("rss_peak_mb", res.e2e["rss_peak_mb"], "MB", 1)
	res.gate("live-requests", bad == 0, "%d of %d requests answered 200", len(live.samples)-bad, len(live.samples))
	var lates, queues []time.Duration
	for _, s := range live.samples {
		queues = append(queues, s.queued())
		if l, ok := s.late(); ok {
			lates = append(lates, l)
		}
	}
	res.fig("loadgen_late_p99_ms", percentile(durationsMS(lates), 0.99), "ms", len(lates))
	res.fig("loadgen_queue_p99_ms", percentile(durationsMS(queues), 0.99), "ms", len(queues))
	res.fig("loadgen_backlog_max", float64(maxBacklog(live.samples)), "count", len(live.samples))

	// Gates: one event per appended segment, the followed journal equals
	// the collected one, and every warm endpoint of the followed server
	// equals a cold server's over the complete journal.
	dup := 0
	for day, arr := range live.events {
		if len(arr) != 1 {
			dup++
		}
		if _, ok := live.appended[day]; !ok {
			dup++
		}
	}
	res.gate("live-stream-events", missed == 0 && dup == 0, "%d segments appended, %d without an event, %d days with extra events", len(set.rest), missed, dup)
	same, err := sameFile(set.full, set.live)
	if err != nil {
		return err
	}
	res.gate("live-journal", same, "followed journal equals the collected journal")
	if err := gateWarmVsCold(ctx, res, opts, set.live, client, base); err != nil {
		return err
	}

	if cfg.trace {
		L := res.layer
		L["serve.warm_p50_ms"] = percentile(durationsMS(warm), 0.5)
		L["serve.warm_p99_ms"] = percentile(durationsMS(warm), 0.99)
		L["serve.cold_p50_ms"] = percentile(durationsMS(cold), 0.5)
		L["serve.cold_p99_ms"] = percentile(durationsMS(cold), 0.99)
		L["stream.fresh_p50_ms"] = percentile(durationsMS(fresh), 0.5)
		L["stream.fresh_p90_ms"] = percentile(durationsMS(fresh), 0.9)
		L["loadgen.late_ms"] = percentile(durationsMS(lates), 0.99)
		L["loadgen.queue_ms"] = percentile(durationsMS(queues), 0.99)
		L["loadgen.backlog_max"] = float64(maxBacklog(live.samples))
		L["store.journal_append_ms"] = ms(total(tr.snapshot(), "store.journal_append"))
		L["store.journal_segments"] = float64(len(set.rest))
		L["store.journal_mb"] = fileMB(set.live)
		d := func(name string) float64 { return live.after[name] - live.before[name] }
		L["serve.fold_patch_ms"] = 1000 * ratio(d("whereru_stream_fold_seconds_sum"), d("whereru_stream_fold_seconds_count"))
		L["serve.handler_ms"] = 1000 * ratio(d("whereru_request_duration_seconds_sum"), d("whereru_request_duration_seconds_count"))
		hits, misses := d("whereru_cache_hits_total"), d("whereru_cache_misses_total")
		L["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
		L["serve.coalesced"] = d("whereru_cache_coalesced_total")
		L["serve.computations"] = d("whereru_computations_total")
		L["serve.saturated"] = d("whereru_saturation_rejections_total")
		L["serve.patched"] = d("whereru_stream_cache_patched_total")
		setStoreMem(res, ls.study.Store)
		setRuntimeLayer(res, rt)
		if err := standaloneFold(opts, set, res); err != nil {
			return err
		}
		L["analysis.movement_ms"] = explorerMovement(tr, ls.study, live.reqs)
		finishTrace(res, tr, res.layer["serve.load_ms"], 1000*loadS, "live.load", "live.explorer")
	}
	return nil
}

// liveWindow is the number of requests in one second of the schedule,
// the window over which live-serve's op percentiles are taken before
// their median across windows is reported.
func liveWindow(rate float64) int {
	if rate == 0 {
		return liveSaturation
	}
	return int(math.Ceil(rate))
}

// livePhase is what the followed server's live phase recorded.
type livePhase struct {
	reqs          []request
	samples       []sample
	appended      map[string]time.Time   // day → AppendSweep returned
	events        map[string][]time.Time // day → sweep events received
	before, after map[string]float64     // /metrics around the phase
}

// throughput is the rate at which the generator's requests completed.
func (p livePhase) throughput() float64 {
	if len(p.samples) == 0 {
		return 0
	}
	first, last := p.samples[0].due, p.samples[0].done
	for _, s := range p.samples {
		if s.done.After(last) {
			last = s.done
		}
	}
	return float64(len(p.samples)) / last.Sub(first).Seconds()
}

// followPhase follows the journal with ls while appending the remaining
// segments on a fixed schedule and running the generator for the budget;
// it returns once every segment's event arrived (or the drain deadline
// passed) and the generator finished. The generator is open-loop at
// cfg.rate requests per second, or a closed loop when cfg.rate is 0.
func followPhase(ctx context.Context, cfg config, set liveSetup, ls *liveServer, client *http.Client, base string, domains []string, tr *tracer) (livePhase, error) {
	out := livePhase{appended: map[string]time.Time{}}
	fctx, stopFollow := context.WithCancel(ctx)
	followed := make(chan error, 1)
	go func() {
		followed <- ls.srv.Follow(fctx, serve.FollowOptions{Engine: ls.eng, JournalPath: set.live, StartOffset: ls.replay.GoodBytes, Poll: livePoll})
	}()
	stop := func() error {
		stopFollow()
		return <-followed
	}
	if err := waitFollowing(ctx, client, base); err != nil {
		stop()
		return out, err
	}
	sub, unsubscribe, err := subscribe(ctx, base)
	if err != nil {
		stop()
		return out, err
	}
	var err2 error
	if out.before, err2 = scrape(client, base); err2 != nil {
		unsubscribe()
		stop()
		return out, err2
	}
	// The follow phase is open-loop: between scheduled sends it is idle
	// by design, and the fold, cache patch and handler work runs inside
	// the server, where the benchmark puts no spans. It is therefore a
	// root of its own that the coverage gate leaves out; its server-side
	// time comes from /metrics.
	span := tr.begin("live.follow", -1)

	j, _, err := store.OpenJournal(set.live)
	if err != nil {
		unsubscribe()
		stop()
		return out, err
	}
	start := time.Now().Add(20 * time.Millisecond)
	interval := time.Duration(float64(cfg.budget()) / float64(len(set.rest)+1))
	var mu sync.Mutex
	appendErr := make(chan error, 1)
	go func() {
		for i, seg := range set.rest {
			rec, err := seg.record()
			if err != nil {
				appendErr <- err
				return
			}
			if d := time.Until(start.Add(time.Duration(i+1) * interval)); d > 0 {
				time.Sleep(d)
			}
			tr.do("store.journal_append", span, func() { err = j.AppendSweep(rec) })
			if err != nil {
				appendErr <- err
				return
			}
			mu.Lock()
			out.appended[rec.Day.String()] = time.Now()
			mu.Unlock()
		}
		appendErr <- nil
	}()
	rate, n, stopAt := cfg.rate, int(cfg.rate*cfg.seconds), time.Time{}
	if cfg.rate == 0 {
		// twice the requests saturation would complete in the budget
		rate, n, stopAt = math.Inf(1), int(2*liveSaturation*cfg.seconds), start.Add(cfg.budget())
	}
	out.reqs = requestMix(cfg.seed, n, domains)
	out.samples = openLoop(ctx, client, base, out.reqs, rate, runtime.NumCPU(), start, stopAt)
	err = <-appendErr
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	sub.waitFor(len(set.rest), liveDrain)
	tr.end(span)
	if err == nil {
		out.after, err = scrape(client, base)
	}
	unsubscribe()
	if ferr := stop(); err == nil {
		err = ferr
	}
	sub.mu.Lock()
	out.events = sub.arrivals
	sub.mu.Unlock()
	return out, err
}

// waitFollowing polls /healthz until the server reports follow mode.
func waitFollowing(ctx context.Context, client *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Contains(string(b), " follow=1") {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("server did not enter follow mode")
}

// gateWarmVsCold compares every warm endpoint's body and ETag on the
// followed server with a server started cold from the complete journal.
func gateWarmVsCold(ctx context.Context, res *result, opts core.Options, journal string, client *http.Client, base string) error {
	study, err := core.LoadCheckpoint(opts, journal)
	if err != nil {
		return err
	}
	cold := serve.New(study, serve.Options{})
	diff := 0
	for _, path := range warmPaths {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		cold.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if resp.StatusCode != http.StatusOK || rec.Code != http.StatusOK || string(body) != rec.Body.String() || resp.Header.Get("ETag") != rec.Header().Get("ETag") {
			diff++
		}
	}
	res.gate("live-warm-vs-cold", diff == 0, "%d of %d warm endpoints equal a cold server's body and ETag", len(warmPaths)-diff, len(warmPaths))
	return nil
}

// explorerMovement times, once the follow phase has ended, the movement
// analyses the cold explorer requests of the mix asked the server for
// (the first liveMovementCalls distinct ones), each in an
// analysis.movement span under a root of its own, and returns their mean
// time in ms. Inside the server these calls run where the benchmark puts
// no spans; here they run on the same study after its last sweep.
func explorerMovement(tr *tracer, study *core.Study, reqs []request) float64 {
	root := tr.begin("live.explorer", -1)
	defer tr.end(root)
	seen := map[request]bool{}
	for _, r := range reqs {
		if r.asn == 0 || seen[r] || len(seen) >= liveMovementCalls {
			continue
		}
		seen[r] = true
		tr.do("analysis.movement", root, func() { study.Movement(netsim.ASN(r.asn), r.from) })
	}
	return ms(total(tr.snapshot(), "analysis.movement")) / float64(max(1, len(seen)))
}

// standaloneFold folds the appended segments through a fresh engine
// primed from the prefix, outside any server, for the stream.* layer
// metrics.
func standaloneFold(opts core.Options, set liveSetup, res *result) error {
	study, replay, err := core.LoadCheckpointReplay(opts, set.prefix)
	if err != nil {
		return err
	}
	eng := study.NewStreamEngine()
	if err := core.FoldReplay(eng, replay); err != nil {
		return err
	}
	before := eng.TotalStats()
	var fold time.Duration
	for _, seg := range set.rest {
		rec, err := seg.record()
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := eng.Fold(rec); err != nil {
			return err
		}
		fold += time.Since(t0)
	}
	after := eng.TotalStats()
	res.layer["stream.fold_ms"] = ms(fold) / float64(len(set.rest))
	res.layer["stream.domains_touched"] = float64(after.DomainsTouched - before.DomainsTouched)
	res.layer["stream.classifications"] = float64(after.Classifications - before.Classifications)
	res.layer["stream.points_patched"] = float64(after.PointsPatched - before.PointsPatched)
	return nil
}

// sameFile reports whether two files hold the same bytes.
func sameFile(a, b string) (bool, error) {
	ha, err := fileSHA(a)
	if err != nil {
		return false, err
	}
	hb, err := fileSHA(b)
	return ha == hb, err
}

func fileSHA(path string) ([32]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}
