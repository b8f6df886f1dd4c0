package main

import (
	"sync"
	"time"

	"exploitbit"
)

// window is a half-open wall-clock interval.
type window struct{ from, to time.Time }

// liveMonitor polls the write path and the maintainer from outside the
// program: compaction windows and durations, overlay size, WAL growth and
// rebuild activity.
type liveMonitor struct {
	ls        *exploitbit.LiveSystem
	threshold int
	stop      chan struct{}
	done      chan struct{}
	stopOnce  sync.Once

	mu           sync.Mutex
	compacting   []window // CompactInFlight observed true
	inFlight     *window
	crossedAt    time.Time // delta first seen at the threshold since the last compaction
	compactionS  []float64 // threshold crossing → Compactions increment
	lastCompacts int64
	deltaMax     int
	tombsMax     int
	walGrowth    int64 // sum of positive WalBytes increments
	lastWal      int64
	rebuildWalls []float64 // LastRebuildWall of each observed rebuild, seconds
	lastRebuilds int
}

const pollEvery = 2 * time.Millisecond

func startMonitor(ls *exploitbit.LiveSystem, threshold int) *liveMonitor {
	m := &liveMonitor{ls: ls, threshold: threshold, stop: make(chan struct{}), done: make(chan struct{})}
	st := ls.Stats()
	m.lastCompacts, m.lastWal = st.Compactions, st.WalBytes
	m.lastRebuilds = ls.Maintainer.Stats().Rebuilds
	go m.loop()
	return m
}

func (m *liveMonitor) loop() {
	defer close(m.done)
	tk := time.NewTicker(pollEvery)
	defer tk.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-tk.C:
			m.poll(now)
		}
	}
}

func (m *liveMonitor) poll(now time.Time) {
	st := m.ls.Stats()
	ms := m.ls.Maintainer.Stats()
	m.mu.Lock()
	defer m.mu.Unlock()
	if st.DeltaPoints >= m.threshold && m.crossedAt.IsZero() {
		m.crossedAt = now
	}
	switch {
	case st.CompactInFlight && m.inFlight == nil:
		m.inFlight = &window{from: now}
	case !st.CompactInFlight && m.inFlight != nil:
		m.inFlight.to = now
		m.compacting = append(m.compacting, *m.inFlight)
		m.inFlight = nil
	}
	if st.Compactions > m.lastCompacts {
		if !m.crossedAt.IsZero() {
			m.compactionS = append(m.compactionS, now.Sub(m.crossedAt).Seconds())
		}
		m.crossedAt = time.Time{}
		m.lastCompacts = st.Compactions
	}
	if st.DeltaPoints > m.deltaMax {
		m.deltaMax = st.DeltaPoints
	}
	if st.Tombstones > m.tombsMax {
		m.tombsMax = st.Tombstones
	}
	if d := st.WalBytes - m.lastWal; d > 0 {
		m.walGrowth += d
	}
	m.lastWal = st.WalBytes
	if ms.Rebuilds > m.lastRebuilds {
		m.rebuildWalls = append(m.rebuildWalls, ms.LastRebuildWall.Seconds())
		m.lastRebuilds = ms.Rebuilds
	}
}

// close stops polling and waits for the poller to exit.
func (m *liveMonitor) close() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

// reset forgets everything observed so far (keeps an open compaction
// window open from now).
func (m *liveMonitor) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	m.compacting = nil
	if m.inFlight != nil {
		m.inFlight.from = now
	}
	m.compactionS = nil
	m.deltaMax, m.tombsMax = 0, 0
	m.walGrowth = 0
	m.rebuildWalls = nil
}

// snapshot returns the compaction windows (an open one closed at now) and
// the other observations.
type monitorView struct {
	Windows      []window
	CompactionS  []float64
	DeltaMax     int
	TombsMax     int
	WalGrowth    int64
	RebuildWalls []float64
}

func (m *liveMonitor) view() monitorView {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := monitorView{
		Windows:      append([]window(nil), m.compacting...),
		CompactionS:  append([]float64(nil), m.compactionS...),
		DeltaMax:     m.deltaMax,
		TombsMax:     m.tombsMax,
		WalGrowth:    m.walGrowth,
		RebuildWalls: append([]float64(nil), m.rebuildWalls...),
	}
	if m.inFlight != nil {
		v.Windows = append(v.Windows, window{from: m.inFlight.from, to: time.Now()})
	}
	return v
}

// overlaps reports whether [from, to] intersects any window.
func overlaps(ws []window, from, to time.Time) bool {
	for _, w := range ws {
		if from.Before(w.to) && to.After(w.from) {
			return true
		}
	}
	return false
}
