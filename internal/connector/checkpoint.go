package connector

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"stburst/internal/atomicfile"
)

// Checkpoint is the tailer's resume state, one small JSON object on
// disk next to the feed file. Offset is the byte position immediately
// after the last feed line whose documents are known durable; Docs is
// the store's total document count at that same instant (the sink's
// post-flush total). The pair makes resume exact: after WAL replay the
// store holds Docs plus however many documents were flushed after the
// checkpoint was last written, so the tailer re-reads from Offset and
// skips exactly (store count − Docs) documents before ingesting again.
type Checkpoint struct {
	Version int   `json:"version"`
	Offset  int64 `json:"offset"`
	Docs    int   `json:"docs"`
}

// checkpointVersion guards the on-disk shape; a reader refuses
// versions it does not understand rather than resuming from a
// misparsed offset.
const checkpointVersion = 1

// LoadCheckpoint reads a checkpoint file. A missing file is a fresh
// start (ok=false, no error). A present-but-unreadable file is a hard
// error: silently restarting from offset 0 would re-ingest the whole
// feed, which is exactly the duplication the checkpoint exists to
// prevent.
func LoadCheckpoint(path string) (cp Checkpoint, ok bool, err error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Checkpoint{Version: checkpointVersion}, false, nil
	}
	if err != nil {
		return Checkpoint{}, false, fmt.Errorf("connector checkpoint %s: %w", path, err)
	}
	if err := json.Unmarshal(raw, &cp); err != nil {
		return Checkpoint{}, false, fmt.Errorf("connector checkpoint %s: %w (delete it to restart from the beginning)", path, err)
	}
	if cp.Version != checkpointVersion {
		return Checkpoint{}, false, fmt.Errorf("connector checkpoint %s: unsupported version %d", path, cp.Version)
	}
	if cp.Offset < 0 || cp.Docs < 0 {
		return Checkpoint{}, false, fmt.Errorf("connector checkpoint %s: negative offset or docs", path)
	}
	return cp, true, nil
}

// Save writes the checkpoint durably (atomicfile.Write: temp file,
// fsync, atomic rename, directory sync). A crash leaves either the old
// checkpoint or the new one, never a torn file — the same discipline
// the snapshot and corpus writers use.
func (cp Checkpoint) Save(path string) error {
	cp.Version = checkpointVersion
	raw, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	return atomicfile.Write(path, func(w io.Writer) error {
		_, err := w.Write(append(raw, '\n'))
		return err
	})
}
