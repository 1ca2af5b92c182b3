package rlp

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// kinds uses every kind Marshal supports, nested.
type kinds struct {
	U8     uint8
	U32    uint32
	U64    uint64
	I      int
	I32    int32
	I64    int64
	B      bool
	F      float64
	S      string
	Bytes  []byte
	Addr   [4]byte
	Inner  inner
	List   []inner
	Fixed  [2]uint16
	hidden int // unexported: not part of the list
}

type inner struct {
	N    uint64
	Tags []string
}

func (kinds) Generate(r *rand.Rand, _ int) reflect.Value {
	bs := func() []byte {
		b := make([]byte, r.Intn(3)*r.Intn(40)) // often empty, sometimes long
		r.Read(b)
		if len(b) == 0 {
			return nil // the empty string decodes to nil
		}
		return b
	}
	in := func() inner {
		v := inner{N: r.Uint64() >> r.Intn(64)}
		for i := r.Intn(3); i > 0; i-- {
			v.Tags = append(v.Tags, string(bs()))
		}
		return v
	}
	k := kinds{
		U8: uint8(r.Uint32()), U32: r.Uint32(), U64: r.Uint64(),
		I: int(r.Int63()) - r.Intn(2)<<62, I32: int32(r.Uint32()), I64: -r.Int63(),
		B: r.Intn(2) == 1, F: math.Float64frombits(r.Uint64()), S: string(bs()),
		Bytes: bs(), Inner: in(), Fixed: [2]uint16{uint16(r.Uint32()), 0},
	}
	r.Read(k.Addr[:])
	for i := r.Intn(4); i > 0; i-- {
		k.List = append(k.List, in())
	}
	return reflect.ValueOf(k)
}

// TestMarshalRoundTrip: Unmarshal inverts Marshal over every supported kind,
// and the re-encoding is the same bytes.
func TestMarshalRoundTrip(t *testing.T) {
	f := func(k kinds) bool {
		enc, err := Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var got kinds
		if err := Unmarshal(enc, &got); err != nil {
			t.Fatalf("Unmarshal(%x): %v", enc, err)
		}
		again, _ := Marshal(&got)
		if math.IsNaN(k.F) { // NaN != NaN; the bits are compared through again
			got.F, k.F = 0, 0
		}
		return reflect.DeepEqual(k, got) && bytes.Equal(enc, again)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMarshalMatchesItems: Marshal writes what the item builders write.
func TestMarshalMatchesItems(t *testing.T) {
	v := struct {
		N int64
		S string
		B bool
		L []uint32
	}{-1, "dog", true, []uint32{0, 1024}}
	want := Encode(List(Uint(math.MaxUint64), String("dog"), Uint(1), List(Uint(0), Uint(1024))))
	if got, err := Marshal(v); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Marshal = %x, %v; want %x", got, err, want)
	}
}

// TestUnmarshalRejects: one case per rejection rule, each naming its field.
func TestUnmarshalRejects(t *testing.T) {
	type small struct {
		A  uint8
		I  int32
		B  bool
		H  [2]byte
		Xs [2]uint64
	}
	good := List(Uint(1), Uint(2), Uint(1), Bytes([]byte{1, 2}), List(Uint(3), Uint(4)))
	with := func(i int, it Item) []byte {
		items := append([]Item(nil), good.Items...)
		items[i] = it
		return Encode(List(items...))
	}
	cases := []struct {
		name, path, msg string
		data            []byte
	}{
		{"struct too short", "rlp.small", "4 fields", Encode(List(good.Items[:4]...))},
		{"struct too long", "rlp.small", "6 fields", Encode(List(append(good.Items, Uint(0))...))},
		{"array length", "rlp.small.Xs", "1 items", with(4, List(Uint(3)))},
		{"uint overflow", "rlp.small.A", "256 overflows uint8", with(0, Uint(256))},
		{"int overflow", "rlp.small.I", "overflows int32", with(1, Uint(1<<40))},
		{"integer too large", "rlp.small.A", "integer too large", with(0, Bytes(make([]byte, 9)))},
		{"byte array size", "rlp.small.H", "3 bytes for [2]uint8", with(3, Bytes([]byte{1, 2, 3}))},
		{"bool", "rlp.small.B", "bool 2", with(2, Uint(2))},
		{"list for scalar", "rlp.small.A", "uint from list", with(0, List())},
		{"scalar for list", "rlp.small.Xs", "list from string", with(4, Uint(7))},
		{"trailing bytes", "", "trailing bytes", append(Encode(good), 0x80)},
	}
	for _, c := range cases {
		var v small
		err := Unmarshal(c.data, &v)
		if err == nil {
			t.Errorf("%s: accepted %x", c.name, c.data)
			continue
		}
		if !strings.Contains(err.Error(), c.msg) || !strings.Contains(err.Error(), "at "+c.path) && c.path != "" {
			t.Errorf("%s: error %q, want %q at %q", c.name, err, c.msg, c.path)
		}
	}
	var v small
	if err := Unmarshal(Encode(good), &v); err != nil || v.Xs[1] != 4 || !v.B {
		t.Fatalf("good input: %+v, %v", v, err)
	}
	if err := Unmarshal(Encode(good), v); err == nil {
		t.Fatal("Unmarshal into a non-pointer accepted")
	}
}

// TestUnmarshalCopies: decoded bytes never alias the input.
func TestUnmarshalCopies(t *testing.T) {
	data := Encode(List(Bytes([]byte("hello"))))
	var v struct{ B []byte }
	if err := Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	data[2] = 'J'
	if string(v.B) != "hello" {
		t.Fatalf("decoded bytes alias the input: %q", v.B)
	}
}
