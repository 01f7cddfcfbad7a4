package analysis

import (
	"net/netip"
	"sort"
	"time"

	"whereru/internal/netsim"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// This file computes the routing-scenario figures: per-day reachability
// of domain name-server infrastructure (overall, per country, per ASN)
// and simulated resolution-latency series, both driven by the AS-level
// route tables. The implementation is epoch-engine style: one store
// snapshot, the sorted domain list sharded over workers, one route
// evaluation per (epoch × route-version window), per-shard difference
// arrays over the day axis, and a deterministic shard-order merge — so
// the output is byte-identical for any worker count, the same contract
// the composition series keep.

// RouteOracle is the analysis-side routing dependency: per-day
// reachability and path latency for an address, plus the route-state
// version that lets the engine segment the day axis (within one version
// every route decision is constant). netsim.RouteView satisfies it.
type RouteOracle interface {
	Route(day simtime.Day, addr netip.Addr) (time.Duration, bool)
	Version(day simtime.Day) int
}

// allReachable is the nil-Routes oracle: one version, every address
// reachable at zero latency. It keeps the series well-defined (and
// trivial) on studies without a scenario.
type allReachable struct{}

func (allReachable) Route(simtime.Day, netip.Addr) (time.Duration, bool) { return 0, true }
func (allReachable) Version(simtime.Day) int                             { return 0 }

// routes resolves the analyzer's oracle.
func (a *Analyzer) routes() RouteOracle {
	if a.Routes != nil {
		return a.Routes
	}
	return allReachable{}
}

// routeSegments splits the day axis at route-state version boundaries,
// the routing analog of geoSegments.
func routeSegments(oracle RouteOracle, days []simtime.Day) []segment {
	var segs []segment
	for i := 0; i < len(days); {
		v := oracle.Version(days[i])
		j := i + 1
		for j < len(days) && oracle.Version(days[j]) == v {
			j++
		}
		segs = append(segs, segment{lo: i, hi: j, ver: v})
		i = j
	}
	return segs
}

// routeCache memoizes route decisions keyed by (route version, addr) and
// address origin metadata (static). Each shard worker owns one, like
// geoCache.
type routeCache struct {
	oracle RouteOracle
	net    *netsim.Internet
	memo   map[routeKey]routeVal
	origin map[netip.Addr]originVal
}

type routeKey struct {
	ver  int
	addr netip.Addr
}

type routeVal struct {
	lat time.Duration
	ok  bool
}

type originVal struct {
	asn     netsim.ASN
	country string
	known   bool
}

func newRouteCache(oracle RouteOracle, net *netsim.Internet) *routeCache {
	return &routeCache{
		oracle: oracle,
		net:    net,
		memo:   map[routeKey]routeVal{},
		origin: map[netip.Addr]originVal{},
	}
}

// route returns the memoized route decision for addr on day (ver is the
// day's route version, resolved by the caller once per segment).
func (c *routeCache) route(ver int, day simtime.Day, addr netip.Addr) (time.Duration, bool) {
	k := routeKey{ver: ver, addr: addr}
	if v, hit := c.memo[k]; hit {
		return v.lat, v.ok
	}
	lat, ok := c.oracle.Route(day, addr)
	c.memo[k] = routeVal{lat: lat, ok: ok}
	return lat, ok
}

// originOf returns the (ASN, country) of an address per the address
// plan. Addresses outside the plan report known=false and are excluded
// from the per-country/per-ASN breakdowns.
func (c *routeCache) originOf(addr netip.Addr) originVal {
	if v, hit := c.origin[addr]; hit {
		return v
	}
	var v originVal
	if c.net != nil {
		if asn, ok := c.net.OriginAS(addr); ok {
			v.asn, v.known = asn, true
			if as, ok := c.net.Lookup(asn); ok {
				v.country = as.Country
			}
		}
	}
	c.origin[addr] = v
	return v
}

// CountryReach is one country's slice of a reachability point: how many
// measured domains have name-server addresses there, and for how many of
// them at least one such address has an AS path.
type CountryReach struct {
	Country   string
	Total     int
	Reachable int
}

// ASNReach is the per-ASN analog of CountryReach.
type ASNReach struct {
	ASN       netsim.ASN
	Total     int
	Reachable int
}

// ReachPoint is one day of the reachability series. A domain counts when
// its epoch carries at least one name-server address; it is Reachable
// when at least one of those addresses has an AS path from the vantage.
// The Countries/ASNs breakdowns attribute the domain to every country or
// ASN its name-server set touches (a dual-homed domain counts in both),
// sorted for deterministic serialization.
type ReachPoint struct {
	Day          simtime.Day
	Interpolated bool
	Total        int
	Reachable    int
	Unreachable  int
	Countries    []CountryReach
	ASNs         []ASNReach
}

// ReachabilitySeries computes per-day name-server reachability under the
// analyzer's route oracle for the given days (any order). Without Routes
// every domain with name-server addresses is reachable.
func (a *Analyzer) ReachabilitySeries(days []simtime.Day, filter Filter) []ReachPoint {
	out := make([]ReachPoint, 0, len(days))
	if len(days) == 0 {
		return out
	}
	days, perm := sortDays(days)
	oracle := a.routes()
	snap := a.Store.Snapshot()
	segs := routeSegments(oracle, days)
	n := snap.NumDomains()

	type acc struct {
		dTotal, dReach []int
		cTotal, cReach map[string][]int
		aTotal, aReach map[netsim.ASN][]int
	}
	shards := make([]acc, a.workers())
	used := a.shard(n, func(shard, lo, hi int) {
		d := &shards[shard]
		d.dTotal = make([]int, len(days)+1)
		d.dReach = make([]int, len(days)+1)
		d.cTotal = make(map[string][]int)
		d.cReach = make(map[string][]int)
		d.aTotal = make(map[netsim.ASN][]int)
		d.aReach = make(map[netsim.ASN][]int)
		rc := newRouteCache(oracle, a.Internet)
		diff := func(m map[string][]int, k string, l, h int) {
			dk := m[k]
			if dk == nil {
				dk = make([]int, len(days)+1)
				m[k] = dk
			}
			dk[l]++
			dk[h]--
		}
		diffA := func(m map[netsim.ASN][]int, k netsim.ASN, l, h int) {
			dk := m[k]
			if dk == nil {
				dk = make([]int, len(days)+1)
				m[k] = dk
			}
			dk[l]++
			dk[h]--
		}
		// Per-epoch scratch, reused across visits.
		type slice struct {
			reach bool
		}
		cSeen := map[string]*slice{}
		aSeen := map[netsim.ASN]*slice{}
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
			if len(cfg.NSAddrs) == 0 {
				return
			}
			for _, sg := range segs {
				l, h := max(elo, sg.lo), min(ehi, sg.hi)
				if l >= h {
					continue
				}
				day, ver := days[l], sg.ver
				anyReach := false
				for k := range cSeen {
					delete(cSeen, k)
				}
				for k := range aSeen {
					delete(aSeen, k)
				}
				for _, addr := range cfg.NSAddrs {
					_, ok := rc.route(ver, day, addr)
					if ok {
						anyReach = true
					}
					o := rc.originOf(addr)
					if !o.known {
						continue
					}
					if o.country != "" {
						s := cSeen[o.country]
						if s == nil {
							s = &slice{}
							cSeen[o.country] = s
						}
						s.reach = s.reach || ok
					}
					s := aSeen[o.asn]
					if s == nil {
						s = &slice{}
						aSeen[o.asn] = s
					}
					s.reach = s.reach || ok
				}
				d.dTotal[l]++
				d.dTotal[h]--
				if anyReach {
					d.dReach[l]++
					d.dReach[h]--
				}
				for country, s := range cSeen {
					diff(d.cTotal, country, l, h)
					if s.reach {
						diff(d.cReach, country, l, h)
					}
				}
				for asn, s := range aSeen {
					diffA(d.aTotal, asn, l, h)
					if s.reach {
						diffA(d.aReach, asn, l, h)
					}
				}
			}
		})
	})

	// Deterministic merge: sum shard deltas in shard order, prefix-sum.
	mTotal := make([]int, len(days)+1)
	mReach := make([]int, len(days)+1)
	mcTotal := make(map[string][]int)
	mcReach := make(map[string][]int)
	maTotal := make(map[netsim.ASN][]int)
	maReach := make(map[netsim.ASN][]int)
	mergeS := func(dst map[string][]int, src map[string][]int) {
		for k, dk := range src {
			mk := dst[k]
			if mk == nil {
				mk = make([]int, len(days)+1)
				dst[k] = mk
			}
			for i := range dk {
				mk[i] += dk[i]
			}
		}
	}
	mergeA := func(dst map[netsim.ASN][]int, src map[netsim.ASN][]int) {
		for k, dk := range src {
			mk := dst[k]
			if mk == nil {
				mk = make([]int, len(days)+1)
				dst[k] = mk
			}
			for i := range dk {
				mk[i] += dk[i]
			}
		}
	}
	for s := 0; s < used; s++ {
		for i := range mTotal {
			mTotal[i] += shards[s].dTotal[i]
			mReach[i] += shards[s].dReach[i]
		}
		mergeS(mcTotal, shards[s].cTotal)
		mergeS(mcReach, shards[s].cReach)
		mergeA(maTotal, shards[s].aTotal)
		mergeA(maReach, shards[s].aReach)
	}
	countries := make([]string, 0, len(mcTotal))
	for c := range mcTotal {
		countries = append(countries, c)
	}
	sort.Strings(countries)
	asns := make([]netsim.ASN, 0, len(maTotal))
	for as := range maTotal {
		asns = append(asns, as)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })

	sweeps := snap.Sweeps()
	runTotal, runReach := 0, 0
	runC := make(map[string][2]int, len(countries))
	runA := make(map[netsim.ASN][2]int, len(asns))
	for i, day := range days {
		runTotal += mTotal[i]
		runReach += mReach[i]
		p := ReachPoint{
			Day:          day,
			Interpolated: !sweptDay(sweeps, day),
			Total:        runTotal,
			Reachable:    runReach,
			Unreachable:  runTotal - runReach,
		}
		for _, c := range countries {
			r := runC[c]
			r[0] += mcTotal[c][i]
			if dk := mcReach[c]; dk != nil {
				r[1] += dk[i]
			}
			runC[c] = r
			if r[0] > 0 {
				p.Countries = append(p.Countries, CountryReach{Country: c, Total: r[0], Reachable: r[1]})
			}
		}
		for _, as := range asns {
			r := runA[as]
			r[0] += maTotal[as][i]
			if dk := maReach[as]; dk != nil {
				r[1] += dk[i]
			}
			runA[as] = r
			if r[0] > 0 {
				p.ASNs = append(p.ASNs, ASNReach{ASN: as, Total: r[0], Reachable: r[1]})
			}
		}
		out = append(out, p)
	}
	if perm != nil {
		res := make([]ReachPoint, len(out))
		for si, oi := range perm {
			res[oi] = out[si]
		}
		return res
	}
	return out
}

// latencyBuckets is the histogram resolution of the route-latency
// series: power-of-two microsecond buckets, matching the pipeline's
// runtime latency histogram so the two views of latency are comparable.
const latencyBuckets = 24

// latencyBucket returns the bucket index for a duration.
func latencyBucket(d time.Duration) int {
	us := d.Microseconds()
	i := 0
	for i < latencyBuckets-1 && us > int64(1)<<i {
		i++
	}
	return i
}

// bucketQuantile returns the upper bound of the bucket holding the
// q-quantile observation of a merged histogram (0 when empty).
func bucketQuantile(counts *[latencyBuckets]int, q float64) time.Duration {
	var total uint64
	for _, c := range counts {
		total += uint64(c)
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += uint64(c)
		if cum >= target {
			return time.Duration(int64(1)<<i) * time.Microsecond
		}
	}
	return time.Duration(int64(1)<<(latencyBuckets-1)) * time.Microsecond
}

// CountryLatency is one country's slice of a latency point: quantiles of
// the best-path latency of domains whose name-server set touches it.
type CountryLatency struct {
	Country       string
	Domains       int
	P50, P90, P99 time.Duration
}

// RouteLatencyPoint is one day of the simulated resolution-latency
// series. A domain observes its best (minimum) routed path latency over
// its name-server addresses; domains with no routed address contribute
// nothing (their cost is visible in the reachability series instead).
type RouteLatencyPoint struct {
	Day           simtime.Day
	Interpolated  bool
	Domains       int
	P50, P90, P99 time.Duration
	Countries     []CountryLatency
}

// RouteLatencySeries computes per-day simulated resolution-latency
// quantiles under the analyzer's route oracle for the given days (any
// order). Without Routes every latency is zero.
func (a *Analyzer) RouteLatencySeries(days []simtime.Day, filter Filter) []RouteLatencyPoint {
	out := make([]RouteLatencyPoint, 0, len(days))
	if len(days) == 0 {
		return out
	}
	days, perm := sortDays(days)
	oracle := a.routes()
	snap := a.Store.Snapshot()
	segs := routeSegments(oracle, days)
	n := snap.NumDomains()

	type acc struct {
		hist  [latencyBuckets][]int
		cHist map[string]*[latencyBuckets][]int
	}
	shards := make([]acc, a.workers())
	used := a.shard(n, func(shard, lo, hi int) {
		d := &shards[shard]
		d.cHist = make(map[string]*[latencyBuckets][]int)
		rc := newRouteCache(oracle, a.Internet)
		cSeen := map[string]bool{}
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
			if len(cfg.NSAddrs) == 0 {
				return
			}
			for _, sg := range segs {
				l, h := max(elo, sg.lo), min(ehi, sg.hi)
				if l >= h {
					continue
				}
				day, ver := days[l], sg.ver
				best, routed := time.Duration(0), false
				for k := range cSeen {
					delete(cSeen, k)
				}
				for _, addr := range cfg.NSAddrs {
					lat, ok := rc.route(ver, day, addr)
					if !ok {
						continue
					}
					if !routed || lat < best {
						best, routed = lat, true
					}
					if o := rc.originOf(addr); o.known && o.country != "" {
						cSeen[o.country] = true
					}
				}
				if !routed {
					continue
				}
				b := latencyBucket(best)
				if d.hist[b] == nil {
					d.hist[b] = make([]int, len(days)+1)
				}
				d.hist[b][l]++
				d.hist[b][h]--
				for country := range cSeen {
					ch := d.cHist[country]
					if ch == nil {
						ch = &[latencyBuckets][]int{}
						d.cHist[country] = ch
					}
					if ch[b] == nil {
						ch[b] = make([]int, len(days)+1)
					}
					ch[b][l]++
					ch[b][h]--
				}
			}
		})
	})

	// Merge shard deltas, prefix-sum each bucket axis.
	var mHist [latencyBuckets][]int
	mcHist := make(map[string]*[latencyBuckets][]int)
	for s := 0; s < used; s++ {
		for b := 0; b < latencyBuckets; b++ {
			if shards[s].hist[b] == nil {
				continue
			}
			if mHist[b] == nil {
				mHist[b] = make([]int, len(days)+1)
			}
			for i, v := range shards[s].hist[b] {
				mHist[b][i] += v
			}
		}
		for country, ch := range shards[s].cHist {
			mch := mcHist[country]
			if mch == nil {
				mch = &[latencyBuckets][]int{}
				mcHist[country] = mch
			}
			for b := 0; b < latencyBuckets; b++ {
				if ch[b] == nil {
					continue
				}
				if mch[b] == nil {
					mch[b] = make([]int, len(days)+1)
				}
				for i, v := range ch[b] {
					mch[b][i] += v
				}
			}
		}
	}
	countries := make([]string, 0, len(mcHist))
	for c := range mcHist {
		countries = append(countries, c)
	}
	sort.Strings(countries)

	sweeps := snap.Sweeps()
	var run [latencyBuckets]int
	runC := make(map[string]*[latencyBuckets]int, len(countries))
	for _, c := range countries {
		runC[c] = &[latencyBuckets]int{}
	}
	for i, day := range days {
		domains := 0
		for b := 0; b < latencyBuckets; b++ {
			if mHist[b] != nil {
				run[b] += mHist[b][i]
			}
			domains += run[b]
		}
		p := RouteLatencyPoint{
			Day:          day,
			Interpolated: !sweptDay(sweeps, day),
			Domains:      domains,
			P50:          bucketQuantile(&run, 0.50),
			P90:          bucketQuantile(&run, 0.90),
			P99:          bucketQuantile(&run, 0.99),
		}
		for _, c := range countries {
			cr := runC[c]
			cd := 0
			for b := 0; b < latencyBuckets; b++ {
				if mcHist[c][b] != nil {
					cr[b] += mcHist[c][b][i]
				}
				cd += cr[b]
			}
			if cd == 0 {
				continue
			}
			p.Countries = append(p.Countries, CountryLatency{
				Country: c,
				Domains: cd,
				P50:     bucketQuantile(cr, 0.50),
				P90:     bucketQuantile(cr, 0.90),
				P99:     bucketQuantile(cr, 0.99),
			})
		}
		out = append(out, p)
	}
	if perm != nil {
		res := make([]RouteLatencyPoint, len(out))
		for si, oi := range perm {
			res[oi] = out[si]
		}
		return res
	}
	return out
}
