package repl

import (
	"context"
	"sync"

	"globaldb/internal/redo"
)

// Mode selects when a transaction's commit may be acknowledged relative to
// replication (Sec. II-B).
type Mode int

const (
	// Async acknowledges commits after local durability only; replicas lag
	// behind (GlobalDB's default, paired with RCP-consistent replica reads).
	Async Mode = iota
	// SyncQuorum acknowledges once a quorum of replicas persisted the
	// commit record. If the quorum spans regions, commits pay WAN latency.
	SyncQuorum
)

func (m Mode) String() string {
	if m == SyncQuorum {
		return "sync-quorum"
	}
	return "async"
}

// Manager owns a primary's shippers and implements commit-time durability
// waits plus log truncation below the slowest reader of the log.
type Manager struct {
	log    *redo.Log
	mode   Mode
	quorum int

	mu       sync.Mutex
	shippers []*Shipper
	tailers  []func() uint64 // see AddTailer
	waiters  []chan struct{}
}

// NewManager creates a manager over the primary's log. quorum is the number
// of replica acknowledgements a SyncQuorum commit waits for.
func NewManager(log *redo.Log, mode Mode, quorum int) *Manager {
	if quorum < 1 {
		quorum = 1
	}
	return &Manager{log: log, mode: mode, quorum: quorum}
}

// Mode returns the replication mode.
func (m *Manager) Mode() Mode { return m.mode }

// AddShipper attaches a started-elsewhere shipper. The manager hooks its
// acknowledgements to wake quorum waiters; callers must create the shipper
// with the manager's AckHook.
func (m *Manager) AddShipper(s *Shipper) {
	m.mu.Lock()
	m.shippers = append(m.shippers, s)
	m.mu.Unlock()
}

// AddTailer registers a reader of the log other than a shipper — the WAL
// archiver — by the LSN it will read next: Truncate keeps every record at or
// above what next returns. next must never go backwards.
func (m *Manager) AddTailer(next func() uint64) {
	m.mu.Lock()
	m.tailers = append(m.tailers, next)
	m.mu.Unlock()
}

// AckHook returns the onAck callback shippers must be constructed with.
func (m *Manager) AckHook() func(uint64) {
	return func(uint64) {
		m.mu.Lock()
		waiters := m.waiters
		m.waiters = nil
		m.mu.Unlock()
		for _, w := range waiters {
			close(w)
		}
	}
}

// ackCount reports how many shippers have acknowledged at least lsn.
func (m *Manager) ackCount(lsn uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, s := range m.shippers {
		if s.AckedLSN() >= lsn {
			n++
		}
	}
	return n
}

// WaitDurable blocks until the commit record at lsn satisfies the
// replication mode: immediately under Async, after quorum acknowledgements
// under SyncQuorum.
func (m *Manager) WaitDurable(ctx context.Context, lsn uint64) error {
	return m.waitDurable(ctx, lsn, false)
}

// WaitReplicated blocks until a quorum of replicas acknowledged lsn even
// when the manager runs asynchronously — the per-table synchronous
// replication path.
func (m *Manager) WaitReplicated(ctx context.Context, lsn uint64) error {
	return m.waitDurable(ctx, lsn, true)
}

func (m *Manager) waitDurable(ctx context.Context, lsn uint64, force bool) error {
	if m.mode == Async && !force {
		return nil
	}
	for {
		if m.ackCount(lsn) >= m.quorum || m.quorum > m.shipperCount() {
			return nil
		}
		m.mu.Lock()
		w := make(chan struct{})
		m.waiters = append(m.waiters, w)
		m.mu.Unlock()
		// Re-check: an ack may have landed between the check and the wait
		// registration.
		if m.ackCount(lsn) >= m.quorum {
			return nil
		}
		select {
		case <-w:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func (m *Manager) shipperCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.shippers)
}

// MinAckedLSN returns the slowest replica's applied LSN (0 with no
// replicas).
func (m *Manager) MinAckedLSN() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.shippers) == 0 {
		return 0
	}
	min := m.shippers[0].AckedLSN()
	for _, s := range m.shippers[1:] {
		if a := s.AckedLSN(); a < min {
			min = a
		}
	}
	return min
}

// Truncate drops the log records no reader needs again: those below the
// slowest replica's acknowledged LSN and below every tailer's next LSN. With
// a replica down its shipper's acknowledgements stop, and so does truncation.
func (m *Manager) Truncate() {
	floor := m.MinAckedLSN()
	m.mu.Lock()
	tailers := m.tailers
	m.mu.Unlock()
	for _, next := range tailers {
		floor = min(floor, next())
	}
	if floor > 1 {
		m.log.Truncate(floor)
	}
}

// Shippers returns the attached shippers (for stats).
func (m *Manager) Shippers() []*Shipper {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Shipper, len(m.shippers))
	copy(out, m.shippers)
	return out
}

// StopAll stops every shipper.
func (m *Manager) StopAll() {
	for _, s := range m.Shippers() {
		s.Stop()
	}
}
