package report

import (
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

// The text writeSegments puts around the numbers and the kind of each
// segment; segmentsLen counts the same constants.
const (
	segmentsOpen  = "\n    \"segments\": ["
	segmentsClose = "\n    ]"
	segStart      = "\n      {\n        \"start\": "
	segEnd        = ",\n        \"end\": "
	segKind       = ",\n        \"kind\": "
	segDevice     = ",\n        \"device\": "
	segTensor     = ",\n        \"tensor\": "
	segClose      = "\n      }"
)

// renderChunk is how many bytes of segments writeSegments gathers before
// it hands them to the writer.
const renderChunk = 32 << 10

// WriteJSON renders the report as indented JSON: byte for byte what
// json.MarshalIndent writes, and a newline. The critical path's segments
// are nearly all of the document, so they alone bypass encoding/json's
// reflection and its indenting second pass: the rest is marshalled
// without them and writeSegments fills them in.
//
// Everything that can be refused is refused before the first byte reaches
// w: a segment with no JSON form (NaN or ±Inf) or a report that
// encoding/json refuses leaves w untouched. A w that can grow, as
// *bytes.Buffer and *strings.Builder can, is grown once to a bound of the
// document's length (exact but for the numbers, bounded by their
// magnitude), so the document is copied into it once; any other w gets
// it in writes of about 32 KB, with no buffer layered over it.
func (r *Report) WriteJSON(w io.Writer) error {
	if r.CriticalPath == nil || len(r.CriticalPath.Segments) == 0 {
		return writeJSON(w, r)
	}
	segs := r.CriticalPath.Segments
	size, err := segmentsLen(segs)
	if err != nil {
		return err
	}
	rest, cp := *r, *r.CriticalPath
	cp.Segments, rest.CriticalPath = nil, &cp
	doc, err := json.MarshalIndent(&rest, "", "  ")
	if err != nil {
		return err
	}
	head, tail, _ := bytes.Cut(doc, []byte(segmentsNull))
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(len(head) + size + len(tail) + 1)
	}
	if _, err := w.Write(head); err != nil {
		return err
	}
	if err := writeSegments(w, segs, size); err != nil {
		return err
	}
	_, err = w.Write(append(tail, '\n')) // tail ends doc: no other bytes are overwritten
	return err
}

// segmentsLen bounds the bytes writeSegments writes for the non-empty segs
// and refuses a segment with no JSON form. Integers and kind names count
// exactly, and every start and end as floatLen bounds it.
func segmentsLen(segs []Segment) (int, error) {
	const fixed = len(segStart) + len(segEnd) + len(segKind) + len(segDevice) + len(segClose)
	n := len(segmentsOpen) + len(segmentsClose) + len(segs) - 1 // the commas between segments
	var (
		kinds    [8]string // the first kinds met, and their quoted lengths
		kindLens [8]int
		known    int
		q        []byte
	)
	for i, s := range segs {
		if !finite(s.Start) || !finite(s.End) {
			return 0, fmt.Errorf("report: segment %d: [%v, %v] has no JSON form", i, s.Start, s.End)
		}
		k := 0
		for k < known && kinds[k] != s.Kind {
			k++
		}
		if k < known {
			n += kindLens[k]
		} else {
			q = obs.AppendJSONString(q[:0], s.Kind)
			n += len(q)
			if known < len(kinds) {
				kinds[known], kindLens[known] = s.Kind, len(q)
				known++
			}
		}
		dev := uint64(s.Device)
		if s.Device < 0 {
			dev, n = -dev, n+1 // and the minus sign
		}
		n += fixed + floatLen(s.Start) + floatLen(s.End) + digits(dev)
		if s.Tensor != 0 {
			n += len(segTensor) + digits(s.Tensor)
		}
	}
	return n, nil
}

// fractionZeros are the powers of ten below which a number in f form
// has one more zero after "0.".
var fractionZeros = [...]float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5}

// floatLen bounds the length of obs.AppendJSONFloat(nil, f), which writes
// at most 17 significant digits: 23 bytes in e form (below 1e-6 and from
// 1e21), 21 from 1e17, 18 with the point from 1, and below 1 "0.", the
// zeros after it and 17 digits; a byte more for a minus sign.
func floatLen(f float64) int {
	n := 0
	if math.Signbit(f) {
		n, f = 1, -f
	}
	switch {
	case f == 0:
		return n + 1
	case f < 1e-6 || f >= 1e21:
		return n + 23
	case f >= 1e17:
		return n + 21
	case f >= 1:
		return n + 18
	}
	n += 19
	for _, p := range fractionZeros {
		if f >= p {
			break
		}
		n++
	}
	return n
}

// digits is the number of decimal digits of v.
func digits(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// writeSegments writes the report's "segments" key and its non-empty value,
// which segmentsLen has checked and bounded by size, in writes of about
// renderChunk bytes. On a critical path every Start is the End before it,
// so a boundary is formatted once and its digits are written twice. What
// decides is the bit pattern, not ==: -0 and 0 are equal and print
// differently.
func writeSegments(w io.Writer, segs []Segment, size int) error {
	// A chunk has room past renderChunk for the segment that crosses it.
	buf := append(make([]byte, 0, min(size, renderChunk+1<<10)), segmentsOpen...)
	var (
		end     []byte // the digits of the End before this segment
		endBits uint64
	)
	for i, s := range segs {
		if len(buf) >= renderChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, segStart...)
		if i > 0 && math.Float64bits(s.Start) == endBits {
			buf = append(buf, end...)
		} else {
			buf = obs.AppendJSONFloat(buf, s.Start)
		}
		end, endBits = obs.AppendJSONFloat(end[:0], s.End), math.Float64bits(s.End)
		buf = append(append(buf, segEnd...), end...)
		buf = obs.AppendJSONString(append(buf, segKind...), s.Kind)
		buf = strconv.AppendInt(append(buf, segDevice...), int64(s.Device), 10)
		if s.Tensor != 0 {
			buf = strconv.AppendUint(append(buf, segTensor...), s.Tensor, 10)
		}
		buf = append(buf, segClose...)
	}
	_, err := w.Write(append(buf, segmentsClose...))
	return err
}
