package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The JSONL format is one JSON object per line, stream-friendly: a header
// line, then each lane's meta line followed by its records in sequence
// order. Unlike the Chrome export it round-trips losslessly through
// ReadJSONL, which is what the FuzzTraceJSONL target pins down.

// The obs event log is written in a sibling format — same attribute
// encoding, same line framing, other line kinds and key names — so the parts
// both codecs share are exported from here: WireAttr/ToWire, Trace.Lane and
// ScanJSONL. The line structs themselves stay one per format, because their
// key names and omitempty sets differ and the bytes are contract.

// jsonlVersion is bumped on incompatible line-schema changes.
const jsonlVersion = 1

// WireAttr is one attribute on the wire; exactly one payload field is set.
type WireAttr struct {
	K string   `json:"k"`
	S *string  `json:"s,omitempty"`
	I *int64   `json:"i,omitempty"`
	F *float64 `json:"f,omitempty"`
	B *bool    `json:"b,omitempty"`
}

// ToWire returns the record's attributes in wire form, nil when it has none.
func ToWire(r *Record) []WireAttr {
	if r.NAttrs == 0 {
		return nil
	}
	out := make([]WireAttr, r.NAttrs)
	for i, a := range r.AttrList() {
		out[i] = toWireAttr(a)
	}
	return out
}

func toWireAttr(a Attr) WireAttr {
	w := WireAttr{K: a.Key}
	switch a.kind {
	case attrInt:
		n := a.num
		w.I = &n
	case attrFloat:
		f := a.f
		w.F = &f
	case attrBool:
		b := a.num != 0
		w.B = &b
	default:
		s := a.str
		w.S = &s
	}
	return w
}

// Attr decodes the wire form; with no payload field set it is an empty
// string attribute.
func (w WireAttr) Attr() Attr {
	switch {
	case w.I != nil:
		return Int(w.K, *w.I)
	case w.F != nil:
		return Float(w.K, *w.F)
	case w.B != nil:
		return Bool(w.K, *w.B)
	case w.S != nil:
		return String(w.K, *w.S)
	}
	return String(w.K, "")
}

// jsonlLine is the union of all line kinds; Kind selects the shape.
type jsonlLine struct {
	Kind string `json:"kind"`
	// header
	V             int  `json:"v,omitempty"`
	Deterministic bool `json:"deterministic,omitempty"`
	// lane
	Lane    int     `json:"lane"`
	Name    string  `json:"name,omitempty"`
	Dropped uint64  `json:"dropped,omitempty"`
	Now     float64 `json:"now,omitempty"`
	// span / event
	ID     uint64     `json:"id,omitempty"`
	Parent uint64     `json:"parent,omitempty"`
	Seq    uint64     `json:"seq,omitempty"`
	Start  float64    `json:"start"`
	End    float64    `json:"end"`
	WallNs int64      `json:"wall_ns,omitempty"`
	Open   bool       `json:"open,omitempty"`
	Attrs  []WireAttr `json:"attrs,omitempty"`
}

// WriteJSONL writes the trace as JSON Lines: a header, then per lane a lane
// line followed by that lane's records. Deterministic given deterministic
// records (wall_ns is omitted when zero, which deterministic mode
// guarantees).
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlLine{Kind: "header", V: jsonlVersion, Deterministic: t.Deterministic}); err != nil {
		return err
	}
	for _, l := range t.Lanes {
		if err := enc.Encode(jsonlLine{Kind: "lane", Lane: l.ID, Name: l.Name, Dropped: l.Dropped, Now: l.Now}); err != nil {
			return err
		}
		for i := range l.Records {
			r := &l.Records[i]
			line := jsonlLine{
				Kind:   "span",
				Lane:   l.ID,
				Name:   r.Name,
				ID:     r.ID,
				Parent: r.Parent,
				Seq:    r.Seq,
				Start:  r.Start,
				End:    r.End,
				WallNs: r.WallNs,
				Open:   r.Open,
				Attrs:  ToWire(r),
			}
			if r.Kind == KindEvent {
				line.Kind = "event"
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Lane returns the lane with the given id, appending an unnamed one when the
// trace has none — how both readers keep lanes in first-seen order.
func (t *Trace) Lane(id int) *LaneSnapshot {
	// Records arrive grouped by lane, so the match is almost always the last.
	for i := len(t.Lanes) - 1; i >= 0; i-- {
		if t.Lanes[i].ID == id {
			return &t.Lanes[i]
		}
	}
	t.Lanes = append(t.Lanes, LaneSnapshot{ID: id})
	return &t.Lanes[len(t.Lanes)-1]
}

// ScanJSONL decodes a JSON Lines stream one line at a time into a fresh T and
// hands it to each. Blank lines are skipped; a malformed line or an error
// from each ends the scan, reported with its 1-based line number as
// "<pkg>: jsonl line N: ...".
func ScanJSONL[T any](r io.Reader, pkg string, each func(line *T) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var line T
		err := json.Unmarshal(sc.Bytes(), &line)
		if err == nil {
			err = each(&line)
		}
		if err != nil {
			return fmt.Errorf("%s: jsonl line %d: %w", pkg, n, err)
		}
	}
	return sc.Err()
}

// ReadJSONL parses a JSONL trace stream back into a Trace. Lanes keep their
// first-seen order and metadata; records keep file order within their lane.
// Records for a lane with no preceding lane line get an implicit unnamed
// lane. Unknown line kinds are an error, as is any malformed line.
func ReadJSONL(r io.Reader) (*Trace, error) {
	out := &Trace{}
	err := ScanJSONL(r, "trace", func(line *jsonlLine) error {
		switch line.Kind {
		case "header":
			out.Deterministic = line.Deterministic
		case "lane":
			l := out.Lane(line.Lane)
			l.Name = line.Name
			l.Dropped = line.Dropped
			l.Now = line.Now
		case "span", "event":
			rec := Record{
				Name:   line.Name,
				ID:     line.ID,
				Parent: line.Parent,
				Seq:    line.Seq,
				Start:  line.Start,
				End:    line.End,
				WallNs: line.WallNs,
				Open:   line.Open,
			}
			if line.Kind == "event" {
				rec.Kind = KindEvent
			}
			if len(line.Attrs) > MaxAttrs {
				return fmt.Errorf("%d attrs exceeds the record limit %d", len(line.Attrs), MaxAttrs)
			}
			for _, a := range line.Attrs {
				rec.Set(a.Attr())
			}
			l := out.Lane(line.Lane)
			l.Records = append(l.Records, rec)
		default:
			return fmt.Errorf("unknown kind %q", line.Kind)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
