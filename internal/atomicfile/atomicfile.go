// Package atomicfile publishes files so that a crash — of the process or
// of the machine — leaves either the old file or the complete new one,
// never a torn or empty one. Every on-disk artifact the system rewrites
// in place (snapshots and bundles, the corpus file a WAL prune absorbs
// into, connector checkpoints) goes through Write.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write publishes what write produces as the file at path: the bytes go
// to a temp file in the destination directory, which is fsync'd, renamed
// over path, and made durable by an fsync of the directory. On any error
// — write's own included — path is left untouched and the temp file is
// removed.
func Write(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // a no-op once the rename has happened
	err = write(tmp)
	if err == nil {
		// CreateTemp uses 0600; artifacts are written by one user and read
		// by another, so widen to the conventional 0644 before publishing.
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so that files just created, renamed or
// removed in it survive a crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
