package wal

import (
	"sync"

	"globaldb/internal/redo"
)

// Archiver tails an in-memory redo log and appends new records to a WAL
// writer — the durability sidecar a primary data node runs. Archival is
// asynchronous (like shipping to a local synchronous replica would be in
// GaussDB, durability trails the commit acknowledgment by one flush);
// Close drains everything appended so far before returning.
type Archiver struct {
	log      *redo.Log
	w        *Writer
	batchMax int

	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	lastErr error
}

// DefaultArchiveBatch is how many records an archiver drains per WAL append.
const DefaultArchiveBatch = 4096

// NewArchiverBatched starts archiving log records from the writer's next
// LSN, draining at most batchMax records per WAL append (<= 0 uses
// DefaultArchiveBatch). batchMax=1 appends (and, under SyncEveryBatch,
// fsyncs) record by record — the no-coalescing baseline a database without
// group commit pays.
func NewArchiverBatched(log *redo.Log, w *Writer, batchMax int) *Archiver {
	if batchMax <= 0 {
		batchMax = DefaultArchiveBatch
	}
	a := &Archiver{log: log, w: w, batchMax: batchMax, stop: make(chan struct{}), done: make(chan struct{})}
	go a.run()
	return a
}

// Writer exposes the underlying WAL writer (durability waits, stats).
func (a *Archiver) Writer() *Writer { return a.w }

func (a *Archiver) run() {
	defer close(a.done)
	for {
		if err := a.drainOnce(); err != nil {
			a.mu.Lock()
			a.lastErr = err
			a.mu.Unlock()
			return
		}
		notify := a.log.NotifyAppend()
		// Re-check after arming the notification to avoid a lost wakeup.
		if a.log.LastLSN() >= a.w.NextLSN() {
			continue
		}
		select {
		case <-a.stop:
			return
		case <-notify:
		}
	}
}

// drainOnce archives every record currently in the log.
func (a *Archiver) drainOnce() error {
	for {
		next := a.w.NextLSN()
		if a.log.LastLSN() < next {
			return nil
		}
		recs, err := a.log.ReadFrom(next, a.batchMax)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			return nil
		}
		if err := a.w.Append(recs); err != nil {
			return err
		}
	}
}

// Err reports a terminal archiving error, if any.
func (a *Archiver) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastErr
}

// Kill simulates a crash: it stops the archiver WITHOUT draining the log
// tail and closes the writer. Records the primary appended but the
// archiver had not yet written are lost — exactly what a crash loses —
// while every record whose WaitDurable completed survives. Test-only.
func (a *Archiver) Kill() error {
	close(a.stop)
	<-a.done
	return a.w.Close()
}

// Close drains the log tail, stops the archiver, and closes the writer.
func (a *Archiver) Close() error {
	close(a.stop)
	<-a.done
	if err := a.Err(); err != nil {
		a.w.Close()
		return err
	}
	if err := a.drainOnce(); err != nil {
		a.w.Close()
		return err
	}
	return a.w.Close()
}
