package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"strings"

	"toposhot/internal/trace"
)

// The event-log JSONL format is the trace wire format's sibling
// (trace/jsonl.go): one JSON object per line — a header, then per scope a
// scope meta line followed by that scope's events in sequence order — with
// the attribute encoding, lane bookkeeping and line scanner shared from
// there. It round-trips losslessly (the package's tests read it back) and,
// because Snapshot is deterministic, two same-seed runs serialize byte-identical streams at any
// parallelism width.

// jsonlVersion is bumped on incompatible line-schema changes.
const jsonlVersion = 1

// jsonlLine is the union of all line kinds; Kind selects the shape.
type jsonlLine struct {
	Kind string `json:"kind"`
	// header
	V int `json:"v,omitempty"`
	// scope
	Scope   int    `json:"scope"`
	Name    string `json:"name,omitempty"`
	Dropped uint64 `json:"dropped,omitempty"`
	// event
	Seq    uint64           `json:"seq,omitempty"`
	T      float64          `json:"t"`
	Level  string           `json:"level,omitempty"`
	Msg    string           `json:"msg,omitempty"`
	Fields []trace.WireAttr `json:"fields,omitempty"`
}

func eventLine(scope int, scopeName string, r *trace.Record) jsonlLine {
	return jsonlLine{
		Kind:   "event",
		Scope:  scope,
		Name:   scopeName,
		Seq:    r.Seq,
		T:      r.Start,
		Level:  Level(r.Level).String(),
		Msg:    r.Name,
		Fields: trace.ToWire(r),
	}
}

// WriteJSONL writes the log as JSON Lines: a header, then per scope a scope
// meta line followed by that scope's events. Byte-deterministic given a
// deterministic snapshot.
func (lg *Log) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlLine{Kind: "header", V: jsonlVersion}); err != nil {
		return err
	}
	for _, sc := range lg.Lanes {
		if err := enc.Encode(jsonlLine{Kind: "scope", Scope: sc.ID, Name: sc.Name, Dropped: sc.Dropped}); err != nil {
			return err
		}
		for i := range sc.Records {
			if err := enc.Encode(eventLine(sc.ID, "", &sc.Records[i])); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// needsQuote reports whether a logfmt value must be quoted.
func needsQuote(s string) bool {
	if s == "" {
		return true
	}
	return strings.ContainsAny(s, " \t\n\"=")
}

func appendValue(b []byte, s string) []byte {
	if needsQuote(s) {
		return strconv.AppendQuote(b, s)
	}
	return append(b, s...)
}

// appendText renders one event as a logfmt-style line (no trailing newline):
//
//	level=info t=12.345 scope=census msg=campaign-started nodes=30 k=5
func appendText(b []byte, scopeName string, r *trace.Record) []byte {
	b = append(b, "level="...)
	b = append(b, Level(r.Level).String()...)
	b = append(b, " t="...)
	b = strconv.AppendFloat(b, r.Start, 'f', 3, 64)
	if scopeName != "" {
		b = append(b, " scope="...)
		b = appendValue(b, scopeName)
	}
	b = append(b, " msg="...)
	b = appendValue(b, r.Name)
	for _, f := range r.AttrList() {
		b = appendField(b, f)
	}
	return b
}

// appendField renders " key=value" with the logfmt quoting rules.
func appendField(b []byte, f Field) []byte {
	b = append(b, ' ')
	b = append(b, f.Key...)
	b = append(b, '=')
	switch v := f.Value().(type) {
	case int64:
		b = strconv.AppendInt(b, v, 10)
	case float64:
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	case bool:
		b = strconv.AppendBool(b, v)
	case string:
		b = appendValue(b, v)
	}
	return b
}

// FormatLine renders "msg key=value ..." without the level/time prefix — the
// fallback rendering for CLI paths that must speak even when structured
// logging is off (fatal errors under -log-level off).
func FormatLine(msg string, fields ...Field) string {
	b := appendValue(make([]byte, 0, 128), msg)
	for _, f := range fields {
		b = appendField(b, f)
	}
	return string(b)
}

// writeEventText writes one logfmt line to w (live text sink).
func writeEventText(w io.Writer, scopeName string, r *trace.Record) error {
	b := appendText(make([]byte, 0, 128), scopeName, r)
	b = append(b, '\n')
	_, err := w.Write(b)
	return err
}

// writeEventJSON writes one event as a single JSON line to w (live JSONL
// sink).
func writeEventJSON(w io.Writer, scopeName string, e *Event) error {
	raw, err := json.Marshal(eventLine(e.Scope, scopeName, &e.Record))
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	_, err = w.Write(raw)
	return err
}
