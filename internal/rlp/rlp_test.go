package rlp

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Canonical vectors from the Ethereum RLP specification.
func TestSpecVectors(t *testing.T) {
	cases := []struct {
		name string
		item Item
		enc  []byte
	}{
		{"dog", String("dog"), []byte{0x83, 'd', 'o', 'g'}},
		{"cat-dog list", List(String("cat"), String("dog")),
			[]byte{0xc8, 0x83, 'c', 'a', 't', 0x83, 'd', 'o', 'g'}},
		{"empty string", String(""), []byte{0x80}},
		{"empty list", List(), []byte{0xc0}},
		{"zero uint", Uint(0), []byte{0x80}},
		{"single byte", Bytes([]byte{0x0f}), []byte{0x0f}},
		{"two bytes", Bytes([]byte{0x04, 0x00}), []byte{0x82, 0x04, 0x00}},
		{"nested lists", List(List(), List(List()), List(List(), List(List()))),
			[]byte{0xc7, 0xc0, 0xc1, 0xc0, 0xc3, 0xc0, 0xc1, 0xc0}},
		{"uint 15", Uint(15), []byte{0x0f}},
		{"uint 1024", Uint(1024), []byte{0x82, 0x04, 0x00}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Encode(c.item)
			if !bytes.Equal(got, c.enc) {
				t.Fatalf("encode = %x, want %x", got, c.enc)
			}
			back, err := Decode(got)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !itemEqual(back, c.item) {
				t.Fatalf("round trip mismatch: %#v vs %#v", back, c.item)
			}
		})
	}
}

// itemEqual compares items treating nil and empty byte slices as equal.
func itemEqual(a, b Item) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == KindString {
		return bytes.Equal(a.Str, b.Str)
	}
	if len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if !itemEqual(a.Items[i], b.Items[i]) {
			return false
		}
	}
	return true
}

func TestLongString(t *testing.T) {
	payload := bytes.Repeat([]byte{'a'}, 56)
	enc := Encode(Bytes(payload))
	if enc[0] != 0xb8 || enc[1] != 56 {
		t.Fatalf("long string header = %x %x", enc[0], enc[1])
	}
	back, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Str, payload) {
		t.Fatal("long string round trip failed")
	}
}

func TestLongList(t *testing.T) {
	var items []Item
	for i := 0; i < 30; i++ {
		items = append(items, String("xy"))
	}
	enc := Encode(List(items...))
	back, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Items) != 30 {
		t.Fatalf("got %d items", len(back.Items))
	}
}

func TestUintRoundTripQuick(t *testing.T) {
	f := func(v uint64) bool {
		back, err := Decode(Encode(Uint(v)))
		if err != nil {
			return false
		}
		got, err := back.AsUint()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesRoundTripQuick(t *testing.T) {
	f := func(b []byte) bool {
		back, err := Decode(Encode(Bytes(b)))
		if err != nil {
			return false
		}
		got, err := back.AsBytes()
		return err == nil && bytes.Equal(got, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randomItem builds a random item tree for property testing.
func randomItem(rng *rand.Rand, depth int) Item {
	if depth == 0 || rng.Intn(2) == 0 {
		b := make([]byte, rng.Intn(70))
		rng.Read(b)
		return Bytes(b)
	}
	n := rng.Intn(5)
	items := make([]Item, n)
	for i := range items {
		items[i] = randomItem(rng, depth-1)
	}
	return List(items...)
}

func TestRandomTreeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		it := randomItem(rng, 4)
		back, err := Decode(Encode(it))
		if err != nil {
			t.Fatalf("iteration %d: decode: %v", i, err)
		}
		if !itemEqual(back, it) {
			t.Fatalf("iteration %d: round trip mismatch", i)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	bad := [][]byte{
		{},                       // empty
		{0x81, 0x01},             // non-canonical single byte
		{0xb8, 0x01, 0x00},       // long form for short payload
		{0x83, 'a'},              // truncated string
		{0xc2, 0x83},             // truncated list payload
		{0xb9, 0x00, 0x01, 0x00}, // length with leading zero
		{0x83, 'd', 'o', 'g', 'x'} /* trailing */}
	for i, b := range bad {
		if _, err := Decode(b); err == nil {
			t.Errorf("case %d (%x): accepted malformed input", i, b)
		}
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Decode(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAsUintErrors(t *testing.T) {
	if _, err := List().AsUint(); err == nil {
		t.Error("uint from list accepted")
	}
	if _, err := (Item{Kind: KindString, Str: []byte{0, 1}}).AsUint(); err == nil {
		t.Error("leading-zero integer accepted")
	}
	if _, err := (Item{Kind: KindString, Str: bytes.Repeat([]byte{1}, 9)}).AsUint(); err == nil {
		t.Error("oversized integer accepted")
	}
	var _ = reflect.DeepEqual // keep reflect import for quick
}
