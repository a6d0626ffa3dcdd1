package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"micco/internal/obs"
)

// segmentsNull is how encoding/json renders a critical path without
// segments in an indented report. A JSON string cannot hold a raw newline,
// so in a document these bytes are that key and nothing else.
const segmentsNull = "\n    \"segments\": null"

// WriteJSON renders the report as indented JSON. The critical path's
// segments are nearly all of the document, so they alone bypass
// encoding/json's reflection and its indenting second pass: the rest is
// marshalled without them and writeSegments fills them in, byte for byte
// as encoding/json would have written them.
func (r *Report) WriteJSON(w io.Writer) error {
	if r.CriticalPath == nil || len(r.CriticalPath.Segments) == 0 {
		return writeJSON(w, r)
	}
	rest, cp := *r, *r.CriticalPath
	cp.Segments, rest.CriticalPath = nil, &cp
	doc, err := json.MarshalIndent(&rest, "", "  ")
	if err != nil {
		return err
	}
	head, tail, _ := bytes.Cut(doc, []byte(segmentsNull))
	bw := bufio.NewWriter(w)
	bw.Write(head)
	if err := writeSegments(bw, r.CriticalPath.Segments); err != nil {
		return err
	}
	bw.Write(tail)
	bw.WriteByte('\n')
	return bw.Flush() // reports the first failed write, if any
}

// writeSegments writes the report's "segments" key and its non-empty value.
// On a critical path every Start is the End before it, so a boundary is
// formatted once and its digits are written twice. What decides is the bit
// pattern, not ==: -0 and 0 are equal and print differently.
func writeSegments(bw *bufio.Writer, segs []Segment) error {
	bw.WriteString("\n    \"segments\": [")
	var (
		buf, end []byte // the segment being written; the digits of the End before it
		endBits  uint64
	)
	for i, s := range segs {
		if !finite(s.Start) || !finite(s.End) {
			return fmt.Errorf("report: segment %d: [%v, %v] has no JSON form", i, s.Start, s.End)
		}
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n      {\n        \"start\": "...)
		if i > 0 && math.Float64bits(s.Start) == endBits {
			buf = append(buf, end...)
		} else {
			buf = obs.AppendJSONFloat(buf, s.Start)
		}
		end, endBits = obs.AppendJSONFloat(end[:0], s.End), math.Float64bits(s.End)
		buf = append(append(buf, ",\n        \"end\": "...), end...)
		buf = obs.AppendJSONString(append(buf, ",\n        \"kind\": "...), s.Kind)
		buf = strconv.AppendInt(append(buf, ",\n        \"device\": "...), int64(s.Device), 10)
		if s.Tensor != 0 {
			buf = strconv.AppendUint(append(buf, ",\n        \"tensor\": "...), s.Tensor, 10)
		}
		buf = append(buf, "\n      }"...)
		bw.Write(buf)
	}
	bw.WriteString("\n    ]")
	return nil
}
