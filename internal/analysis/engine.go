package analysis

import (
	"net/netip"
	"runtime"
	"sort"
	"sync"

	"whereru/internal/simtime"
	"whereru/internal/store"
)

// The epoch engine is the analysis fast path. The per-day path walks the
// whole store once per requested day — rebuilding the domain list,
// re-locking and re-classifying every domain each time — even though
// domain configurations are piecewise-constant epochs, the very insight
// the store's compression encodes. The engine instead captures one
// read-only store snapshot, shards the sorted domain list over a worker
// pool, visits each domain's epochs intersected with the requested days,
// classifies once per (domain, epoch, geo-version window), and
// accumulates results into per-shard difference arrays over the day axis.
// Shard results merge by addition, so the output is deterministic and
// element-for-element identical to the reference per-day path (the
// equivalence tests assert exactly that).

// workers returns the shard count: Analyzer.Workers, defaulting to the
// machine's CPU count.
func (a *Analyzer) workers() int {
	if a.Workers > 0 {
		return a.Workers
	}
	return runtime.NumCPU()
}

// shard partitions [0, n) into contiguous ranges and runs fn(shard, lo,
// hi) on each concurrently, returning when all complete.
func (a *Analyzer) shard(n int, fn func(shard, lo, hi int)) int {
	w := a.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, 0, n)
		return 1
	}
	var wg sync.WaitGroup
	for s := 0; s < w; s++ {
		lo, hi := s*n/w, (s+1)*n/w
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			fn(s, lo, hi)
		}(s, lo, hi)
	}
	wg.Wait()
	return w
}

// geoLookup is the geolocation dependency of the classifiers. geo.DB
// satisfies it directly (the reference path); shard workers wrap it in a
// memoizing geoCache (the fast path).
type geoLookup interface {
	Lookup(day simtime.Day, addr netip.Addr) (string, bool)
}

// versionedGeo is the part of geo.DB the cache needs beyond Lookup.
type versionedGeo interface {
	geoLookup
	Version(day simtime.Day) int
}

// geoCache memoizes country lookups keyed by (geo DB version, addr): the
// database is versioned in dated snapshots, so within one version window
// a lookup is a pure function of the address. Each shard worker owns one
// cache, so no locking is needed.
type geoCache struct {
	db      versionedGeo
	curDay  simtime.Day
	curVer  int
	haveDay bool
	memo    map[geoKey]geoVal
}

type geoKey struct {
	ver  int
	addr netip.Addr
}

type geoVal struct {
	country string
	ok      bool
}

func newGeoCache(db versionedGeo) *geoCache {
	return &geoCache{db: db, memo: map[geoKey]geoVal{}}
}

func (g *geoCache) Lookup(day simtime.Day, addr netip.Addr) (string, bool) {
	if !g.haveDay || day != g.curDay {
		g.curDay, g.curVer, g.haveDay = day, g.db.Version(day), true
	}
	k := geoKey{ver: g.curVer, addr: addr}
	if v, hit := g.memo[k]; hit {
		return v.country, v.ok
	}
	country, ok := g.db.Lookup(day, addr)
	g.memo[k] = geoVal{country: country, ok: ok}
	return country, ok
}

// classifierFor builds a day-wise composition classifier bound to a geo
// lookup. Classifiers must be pure: for a fixed config, the result may
// change across days only when the geo version changes.
type classifierFor func(g geoLookup) func(day simtime.Day, cfg store.Config) Composition

// segment is a maximal run of day indices [lo, hi) sharing one version
// ver (geo or route), so a classification made for any day inside it
// holds across all of it.
type segment struct{ lo, hi, ver int }

// geoSegments splits the day axis at geolocation snapshot boundaries.
func (a *Analyzer) geoSegments(days []simtime.Day) []segment {
	if a.Geo == nil {
		return []segment{{lo: 0, hi: len(days)}}
	}
	var segs []segment
	for i := 0; i < len(days); {
		v := a.Geo.Version(days[i])
		j := i + 1
		for j < len(days) && a.Geo.Version(days[j]) == v {
			j++
		}
		segs = append(segs, segment{lo: i, hi: j, ver: v})
		i = j
	}
	return segs
}

// sortDays returns the day axis in ascending order plus, when the input
// was not already sorted, the mapping from sorted index to original
// index. The epoch visitor's interval searches require an ascending
// axis, but the public series methods accept days in any order, exactly
// like the reference path.
func sortDays(days []simtime.Day) ([]simtime.Day, []int) {
	for i := 1; i < len(days); i++ {
		if days[i] < days[i-1] {
			perm := make([]int, len(days))
			for j := range perm {
				perm[j] = j
			}
			sort.Slice(perm, func(a, b int) bool { return days[perm[a]] < days[perm[b]] })
			sorted := make([]simtime.Day, len(days))
			for si, oi := range perm {
				sorted[si] = days[oi]
			}
			return sorted, perm
		}
	}
	return days, nil
}

// epochSeries computes a composition series with the epoch engine; it is
// the fast-path equivalent of referenceSeries.
func (a *Analyzer) epochSeries(days []simtime.Day, filter Filter, mk classifierFor) []Point {
	out := make([]Point, 0, len(days))
	if len(days) == 0 {
		return out
	}
	days, perm := sortDays(days)
	snap := a.Store.Snapshot()
	segs := a.geoSegments(days)
	n := snap.NumDomains()

	// Per-shard difference arrays over the day axis, one per class.
	const nClasses = 5 // Full, Part, Non, Unknown, Total
	type acc [nClasses][]int
	shards := make([]acc, a.workers())
	used := a.shard(n, func(shard, lo, hi int) {
		d := &shards[shard]
		for c := range d {
			d[c] = make([]int, len(days)+1)
		}
		classify := mk(newGeoCache(a.Geo))
		curDomain, keep := "", true
		snap.VisitEpochs(days, lo, hi, func(domain string, cfg store.Config, elo, ehi int) {
			if filter != nil {
				if domain != curDomain {
					curDomain, keep = domain, filter(domain)
				}
				if !keep {
					return
				}
			}
			d[4][elo]++
			d[4][ehi]--
			// Classify once per geo-version window the epoch overlaps.
			for _, sg := range segs {
				l, h := max(elo, sg.lo), min(ehi, sg.hi)
				if l >= h {
					continue
				}
				c := classify(days[l], cfg)
				idx := 3 // Unknown
				switch c {
				case CompFull:
					idx = 0
				case CompPart:
					idx = 1
				case CompNon:
					idx = 2
				}
				d[idx][l]++
				d[idx][h]--
			}
		})
	})

	// Deterministic merge: sum the shard deltas, then prefix-sum along the
	// day axis.
	sweeps := snap.Sweeps()
	var run [nClasses]int
	for i, day := range days {
		p := Point{Day: day, Interpolated: !sweptDay(sweeps, day)}
		for c := 0; c < nClasses; c++ {
			for s := 0; s < used; s++ {
				if shards[s][c] != nil {
					run[c] += shards[s][c][i]
				}
			}
		}
		p.Full, p.Part, p.Non, p.Unknown, p.Total = run[0], run[1], run[2], run[3], run[4]
		out = append(out, p)
	}
	if perm != nil {
		res := make([]Point, len(out))
		for si, oi := range perm {
			res[oi] = out[si]
		}
		return res
	}
	return out
}

// referenceSeries is the original per-day path: one full store walk per
// requested day. It is retained as the equivalence oracle for the epoch
// engine and as the naive side of the series ablation benchmarks; the
// production entry points all run the epoch engine.
func (a *Analyzer) referenceSeries(days []simtime.Day, filter Filter, classify func(simtime.Day, store.Config) Composition) []Point {
	out := make([]Point, 0, len(days))
	sweeps := a.Store.Sweeps()
	for _, day := range days {
		p := Point{Day: day, Interpolated: !sweptDay(sweeps, day)}
		a.Store.ForEachAt(day, func(domain string, cfg store.Config) {
			if filter != nil && !filter(domain) {
				return
			}
			p.Total++
			switch classify(day, cfg) {
			case CompFull:
				p.Full++
			case CompPart:
				p.Part++
			case CompNon:
				p.Non++
			default:
				p.Unknown++
			}
		})
		out = append(out, p)
	}
	return out
}

// epochShareSeries is the epoch engine for keyed share series (Figures 3
// and 4, mail operators): per day it produces the population size, an
// optional subpopulation size, and per-key domain counts. include selects
// configs that count toward the population; subpop (optional) selects the
// subpopulation; keysOf appends a config's distinct keys to dst. Keys may
// not depend on the day.
func epochShareSeries[K comparable](a *Analyzer, days []simtime.Day, filter Filter,
	include func(cfg store.Config) bool,
	subpop func(cfg store.Config) bool,
	keysOf func(cfg store.Config, dst []K) []K,
) (totals, subs []int, counts []map[K]int) {
	totals = make([]int, len(days))
	subs = make([]int, len(days))
	counts = make([]map[K]int, len(days))
	for i := range counts {
		counts[i] = make(map[K]int)
	}
	if len(days) == 0 {
		return totals, subs, counts
	}
	days, perm := sortDays(days)
	snap := a.Store.Snapshot()
	n := snap.NumDomains()

	type acc struct {
		dTotal, dSub []int
		dKey         map[K][]int
	}
	shards := make([]acc, a.workers())
	used := a.shard(n, func(shard, lo, hi int) {
		d := &shards[shard]
		d.dTotal = make([]int, len(days)+1)
		d.dSub = make([]int, len(days)+1)
		d.dKey = make(map[K][]int)
		var scratch []K
		curDomain, keep := "", true
		snap.VisitEpochs(days, lo, hi, func(domain string, cfg store.Config, elo, ehi int) {
			if filter != nil {
				if domain != curDomain {
					curDomain, keep = domain, filter(domain)
				}
				if !keep {
					return
				}
			}
			if !include(cfg) {
				return
			}
			d.dTotal[elo]++
			d.dTotal[ehi]--
			if subpop != nil {
				if !subpop(cfg) {
					return
				}
				d.dSub[elo]++
				d.dSub[ehi]--
			}
			scratch = keysOf(cfg, scratch[:0])
			for _, k := range scratch {
				dk := d.dKey[k]
				if dk == nil {
					dk = make([]int, len(days)+1)
					d.dKey[k] = dk
				}
				dk[elo]++
				dk[ehi]--
			}
		})
	})

	// Merge the shard deltas, then prefix-sum each key's axis. Zero-count
	// days are omitted from the maps, matching the per-day reference path.
	merged := make(map[K][]int)
	for s := 0; s < used; s++ {
		for i := range days {
			totals[i] += shards[s].dTotal[i]
			subs[i] += shards[s].dSub[i]
		}
		for k, dk := range shards[s].dKey {
			mk := merged[k]
			if mk == nil {
				mk = make([]int, len(days)+1)
				merged[k] = mk
			}
			for i := range dk {
				mk[i] += dk[i]
			}
		}
	}
	for i := 1; i < len(days); i++ {
		totals[i] += totals[i-1]
		subs[i] += subs[i-1]
	}
	for k, mk := range merged {
		run := 0
		for i := range days {
			run += mk[i]
			if run > 0 {
				counts[i][k] = run
			}
		}
	}
	if perm != nil {
		rt := make([]int, len(days))
		rs := make([]int, len(days))
		rc := make([]map[K]int, len(days))
		for si, oi := range perm {
			rt[oi], rs[oi], rc[oi] = totals[si], subs[si], counts[si]
		}
		return rt, rs, rc
	}
	return totals, subs, counts
}

// sweptDay reports whether day is one of the (sorted) recorded sweep
// days. A series point on a day no sweep covered is carry-forward data
// and gets flagged Interpolated.
func sweptDay(sweeps []simtime.Day, day simtime.Day) bool {
	i := sort.Search(len(sweeps), func(i int) bool { return sweeps[i] >= day })
	return i < len(sweeps) && sweeps[i] == day
}

// uniqueAppend appends k to dst unless already present (key sets per
// config are tiny, so a linear scan beats a map).
func uniqueAppend[K comparable](dst []K, k K) []K {
	for _, have := range dst {
		if have == k {
			return dst
		}
	}
	return append(dst, k)
}
