// Package obsfile holds the observability file-writing helpers shared by
// the command-line tools (miccorun, miccobench, miccoreport): metrics
// snapshots, Chrome traces, decision NDJSON and flight-recorder dumps all
// land on disk through the same code path, so the artifact formats cannot
// drift between tools. Durable run checkpoints (sched.SaveCheckpointFile)
// are written by the same Write.
package obsfile

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"

	"micco/internal/gpusim"
	"micco/internal/obs"
)

// Write hands write a file that becomes path only if write succeeds, and
// on success notes what landed there on logw (stderr in the CLIs;
// io.Discard silences it). The artifact is written to a temporary file
// beside path, synced, and renamed over it at the end, and the directory is
// synced after the rename, so a failed write — a full disk, a value the
// encoder refuses — leaves the previous artifact as it was and no partial
// file behind, a crash cannot leave the name on data that never reached the
// disk, and once Write returns the name survives a crash. A rewrite keeps
// the artifact's permission bits (a file restricted to its owner stays
// so); a new file gets 0666 less the umask. Being a new file, a rewrite
// does not keep the old one's owner or hard links. A destination that
// exists and is not a regular file (/dev/stdout, a pipe, a symlink) has
// nothing to replace and is written in place. The file is buffered:
// the Chrome trace writer emits one record at a time, which would otherwise
// be one write(2) each. Once the records are cheap to format, a 10 MB trace
// through the default 4 KB buffer spends a third of its time in its 2 500
// write calls; at 64 KB they no longer show.
func Write(path, what string, logw io.Writer, write func(io.Writer) error) error {
	var f *os.File
	var err error
	fi, serr := os.Lstat(path)
	inPlace := serr == nil && !fi.Mode().IsRegular()
	if inPlace {
		f, err = os.Create(path)
	} else {
		f, err = createTemp(path)
	}
	if err != nil {
		return err
	}
	if serr == nil && !inPlace {
		err = f.Chmod(fi.Mode().Perm())
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	if err == nil {
		err = write(bw)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil && !inPlace {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && !inPlace {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		if !inPlace {
			os.Remove(f.Name())
		}
		return err
	}
	if !inPlace {
		// Best effort: some file systems refuse to sync a directory, and
		// the rename has happened either way.
		if d, err := os.Open(filepath.Dir(path)); err == nil {
			d.Sync()
			d.Close()
		}
	}
	if logw != nil {
		fmt.Fprintf(logw, "%s written to %s\n", what, path)
	}
	return nil
}

// createTemp creates a new file beside path, with the permissions os.Create
// gives (os.CreateTemp's are owner-only, which the artifact would keep).
func createTemp(path string) (*os.File, error) {
	for {
		tmp := path + ".tmp-" + strconv.FormatUint(rand.Uint64(), 36)
		f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
}

// WriteMetrics writes a metrics snapshot as indented JSON (the format
// LoadSnapshot and miccoreport -diff consume).
func WriteMetrics(path string, logw io.Writer, snap *obs.Snapshot) error {
	return Write(path, "metrics snapshot", logw, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	})
}

// WriteTrace writes a Chrome trace of events with decision records merged
// in as instant markers.
func WriteTrace(path string, logw io.Writer, events []obs.Event, decisions []obs.DecisionRecord) error {
	what := fmt.Sprintf("trace (%d events)", len(events))
	return Write(path, what, logw, func(w io.Writer) error {
		return gpusim.WriteChromeTraceMerged(w, events, decisions)
	})
}

// WriteDecisions writes decision records as newline-delimited JSON.
func WriteDecisions(path string, logw io.Writer, recs []obs.DecisionRecord) error {
	what := fmt.Sprintf("%d decision records", len(recs))
	return Write(path, what, logw, func(w io.Writer) error {
		return obs.WriteDecisionsNDJSON(w, recs)
	})
}

// WriteFlight writes a flight-recorder snapshot as indented JSON.
func WriteFlight(path string, logw io.Writer, snap *obs.FlightSnapshot) error {
	what := fmt.Sprintf("flight snapshot (%d events)", len(snap.Events))
	return Write(path, what, logw, snap.WriteJSON)
}
