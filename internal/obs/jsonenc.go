package obs

import (
	"encoding/json"
	"math"
	"strconv"
)

// The append encoders below write what encoding/json writes for one value,
// without reflection; the writers of the decision log and of the report's
// critical path build their documents from them.

// AppendJSONFloat appends a finite f in encoding/json's number format:
// shortest round-trip digits, exponent form below 1e-6 and from 1e21 up.
func AppendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	// e-09 becomes e-9, as in encoding/json.
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// AppendJSONString appends s as a JSON string, HTML-escaped as
// encoding/json's Marshal and Encoder write it. Printable ASCII that needs
// no escape is what the callers' names are made of and goes through as it
// is; anything else is left to encoding/json.
func AppendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// finite reports whether f has a JSON form.
func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }
