package netsim

import (
	"sync"
	"testing"

	"whereru/internal/simtime"
)

// versionFromEvents recomputes Version from the registered event
// windows: the number of distinct route-state change days (each window's
// first day and the day after its last) on or before day.
func versionFromEvents(topo *Topology, day simtime.Day) int {
	changes := map[simtime.Day]bool{}
	for _, ev := range topo.Events() {
		changes[ev.Window.From] = true
		changes[ev.Window.To+1] = true
	}
	v := 0
	for d := range changes {
		if d <= day {
			v++
		}
	}
	return v
}

// versionTestTopology is a small graph with one fabric.
func versionTestTopology(t *testing.T) *Topology {
	t.Helper()
	topo := NewTopology()
	topo.AddLink(1, 2, ms(1), LinkTransit)
	topo.AddLink(2, 3, ms(1), LinkPeering)
	if err := topo.AddIXP("X", ms(1)); err != nil {
		t.Fatal(err)
	}
	for _, asn := range []ASN{1, 2, 3} {
		if err := topo.AddIXPMember("X", asn); err != nil {
			t.Fatal(err)
		}
	}
	return topo
}

// versionTestEvents returns one registration per call: Depeer,
// WithdrawIXPMember and Partition events whose windows overlap, repeat,
// share boundaries, nest, and reach past either end of the study.
func versionTestEvents(t *testing.T, topo *Topology) []func() {
	d := simtime.ConflictStart
	return []func(){
		func() { topo.Depeer(1, 2, simtime.Window{From: d, To: d.Add(20)}) },
		func() {
			if err := topo.WithdrawIXPMember("X", 3, simtime.Window{From: d.Add(21), To: d.Add(40)}); err != nil {
				t.Error(err)
			}
		},
		func() { topo.Partition("runet", []ASN{2, 3}, simtime.Window{From: d.Add(5), To: d.Add(10)}) },
		// The same window again: no new boundaries.
		func() { topo.Depeer(2, 1, simtime.Window{From: d, To: d.Add(20)}) },
		func() {
			topo.Partition("early", []ASN{1}, simtime.Window{From: simtime.StudyStart.Add(-30), To: simtime.StudyStart.Add(3)})
		},
		func() {
			if err := topo.WithdrawIXPMember("X", 1, simtime.Window{From: simtime.StudyEnd.Add(-2), To: simtime.StudyEnd.Add(60)}); err != nil {
				t.Error(err)
			}
		},
		func() { topo.Depeer(2, 3, simtime.Window{From: d.Add(7), To: d.Add(7)}) },
	}
}

// TestVersionMatchesEventWindows checks, after every registration, that
// Version on every study day equals the recomputation from Events().
func TestVersionMatchesEventWindows(t *testing.T) {
	topo := versionTestTopology(t)
	for i, register := range versionTestEvents(t, topo) {
		register()
		for day := simtime.StudyStart.Add(-1); day <= simtime.StudyEnd.Add(1); day++ {
			if got, want := topo.Version(day), versionFromEvents(topo, day); got != want {
				t.Fatalf("after registration %d: Version(%s) = %d, recomputed %d", i, day, got, want)
			}
		}
	}
}

// TestVersionConcurrentWithRegistration reads Version while events are
// registered, so the race detector sees the boundary bookkeeping; the
// final versions must still match the recomputation.
func TestVersionConcurrentWithRegistration(t *testing.T) {
	topo := versionTestTopology(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Registration only adds boundaries, so a sweep stays
				// monotone in day even when one lands mid-sweep.
				last := 0
				for day := simtime.ConflictStart.Add(-5); day <= simtime.ConflictStart.Add(45); day++ {
					v := topo.Version(day)
					if v < last {
						t.Errorf("Version(%s) = %d after %d on an earlier day", day, v, last)
						return
					}
					last = v
				}
			}
		}()
	}
	for _, register := range versionTestEvents(t, topo) {
		register()
	}
	close(stop)
	wg.Wait()
	for day := simtime.StudyStart; day <= simtime.StudyEnd; day++ {
		if got, want := topo.Version(day), versionFromEvents(topo, day); got != want {
			t.Fatalf("Version(%s) = %d, recomputed %d", day, got, want)
		}
	}
}
