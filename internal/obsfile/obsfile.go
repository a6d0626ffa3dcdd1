// Package obsfile holds the observability file-writing helpers shared by
// the command-line tools (miccorun, miccobench, miccoreport): metrics
// snapshots, Chrome traces, decision NDJSON and flight-recorder dumps all
// land on disk through the same code path, so the artifact formats cannot
// drift between tools.
package obsfile

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"micco/internal/gpusim"
	"micco/internal/obs"
)

// Write creates path, hands it to write, and on success notes what landed
// there on logw (stderr in the CLIs; io.Discard silences it). The file is
// buffered: the Chrome trace writer emits one record at a time, which
// would otherwise be one write(2) each. Once the records are cheap to
// format, a 10 MB trace through the default 4 KB buffer spends a third of
// its time in its 2 500 write calls; at 64 KB they no longer show.
func Write(path, what string, logw io.Writer, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if logw != nil {
		fmt.Fprintf(logw, "%s written to %s\n", what, path)
	}
	return nil
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
func WriteTrace(path string, logw io.Writer, events []gpusim.Event, decisions []obs.DecisionRecord) error {
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
