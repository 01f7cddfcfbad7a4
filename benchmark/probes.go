package main

import (
	"context"
	"io/fs"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"whereru/internal/dns"
	"whereru/internal/iofault"
)

// countingTransport counts the DNS exchanges a resolver sends and the
// time they spend in the wire below it. The time is summed over every
// concurrent exchange, so it is busy time, not wall time.
type countingTransport struct {
	next dns.Transport
	n    atomic.Int64
	busy atomic.Int64
}

func (c *countingTransport) Exchange(ctx context.Context, server netip.Addr, q *dns.Message) (*dns.Message, error) {
	c.n.Add(1)
	t0 := time.Now()
	m, err := c.next.Exchange(ctx, server, q)
	c.busy.Add(int64(time.Since(t0)))
	return m, err
}

// syncClock is a filesystem that records when each fsync of one file
// (the checkpoint journal) returns. Collect fsyncs the journal once when
// creating it and once per completed sweep, so consecutive sync times
// bound each sweep day from outside the program.
type syncClock struct {
	iofault.FS
	path  string
	mu    sync.Mutex
	syncs []time.Time
}

func (s *syncClock) OpenFile(name string, flag int, perm fs.FileMode) (iofault.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil || name != s.path {
		return f, err
	}
	return &clockedFile{File: f, clock: s}, nil
}

// intervals returns the durations between consecutive recorded syncs.
func (s *syncClock) intervals() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []time.Duration
	for i := 1; i < len(s.syncs); i++ {
		out = append(out, s.syncs[i].Sub(s.syncs[i-1]))
	}
	return out
}

type clockedFile struct {
	iofault.File
	clock *syncClock
}

func (f *clockedFile) Sync() error {
	err := f.File.Sync()
	f.clock.mu.Lock()
	f.clock.syncs = append(f.clock.syncs, time.Now())
	f.clock.mu.Unlock()
	return err
}
