package wal

import (
	"io"
	"os"
	"sync"
)

// Injector is a failpoint-style fault injector the test suite threads
// through a Log (Options.injector) to exercise every failure mode of
// the append path without touching the filesystem layer itself: writes
// that fail partway through a frame, short writes, fsyncs that fail
// before or after reaching the disk, and fsyncs that silently do
// nothing (the crash model: acknowledged to the caller, gone on
// "power loss").
//
// An Injector is safe for concurrent use. The zero value injects
// nothing and passes every operation through.
type Injector struct {
	mu sync.Mutex
	// write-budget fault: writes succeed until budget bytes have gone
	// through, then the next write persists only the remaining budget
	// (a torn frame on disk) and returns writeErr — or io.ErrShortWrite
	// with no error configured, modeling a short write.
	budgetSet bool
	budget    int64
	writeErr  error

	beforeSyncErr error
	afterSyncErr  error
	dropSyncs     bool

	syncs int // fsyncs actually performed (dropped syncs excluded)
}

// FailWritesAfter arms the write fault: the next n bytes write
// normally, then the write that would exceed the budget persists only
// its in-budget prefix and fails with err. A nil err fails with
// io.ErrShortWrite instead — the short-write writer. n = 0 fails the
// very next write.
func (in *Injector) FailWritesAfter(n int64, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.budgetSet = true
	in.budget = n
	in.writeErr = err
}

// FailBeforeSync makes every fsync fail with err without syncing —
// the data may or may not reach the disk, and the caller must treat
// the batch as unacknowledged.
func (in *Injector) FailBeforeSync(err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.beforeSyncErr = err
}

// FailAfterSync performs every fsync and then fails it with err — the
// data IS durable but the caller cannot know; it models the crash
// window between fsync returning in the kernel and the acknowledgment
// reaching the application.
func (in *Injector) FailAfterSync(err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.afterSyncErr = err
}

// DropSyncs makes every fsync succeed without doing anything: the log
// acknowledges batches that were never made durable. Combined with
// truncating the segment file, tests simulate a power loss after an
// unsynced write.
func (in *Injector) DropSyncs(drop bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.dropSyncs = drop
}

// Clear disarms every fault; the sync counter keeps counting.
func (in *Injector) Clear() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.budgetSet = false
	in.budget = 0
	in.writeErr = nil
	in.beforeSyncErr = nil
	in.afterSyncErr = nil
	in.dropSyncs = false
}

// Syncs returns the number of fsyncs actually performed (dropped
// syncs are not counted — they never reached the disk).
func (in *Injector) Syncs() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.syncs
}

// write is the Log's write hook.
func (in *Injector) write(f *os.File, p []byte) (int, error) {
	in.mu.Lock()
	if !in.budgetSet || int64(len(p)) <= in.budget {
		if in.budgetSet {
			in.budget -= int64(len(p))
		}
		in.mu.Unlock()
		return f.Write(p)
	}
	// The write exceeds the budget: persist the prefix, then fail.
	keep := in.budget
	in.budget = 0
	failErr := in.writeErr
	if failErr == nil {
		failErr = io.ErrShortWrite
	}
	in.mu.Unlock()
	n, err := f.Write(p[:keep])
	if err != nil {
		return n, err
	}
	return n, failErr
}

// sync is the Log's fsync hook.
func (in *Injector) sync(f *os.File) error {
	in.mu.Lock()
	before, after, drop := in.beforeSyncErr, in.afterSyncErr, in.dropSyncs
	in.mu.Unlock()
	if before != nil {
		return before
	}
	if drop {
		return nil
	}
	if err := f.Sync(); err != nil {
		return err
	}
	in.mu.Lock()
	in.syncs++
	in.mu.Unlock()
	return after
}
