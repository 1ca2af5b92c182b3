// Package rlp implements Ethereum's Recursive Length Prefix serialization.
//
// RLP encodes two kinds of items: byte strings and lists of items. The
// package has two layers. The item tree builds and parses items explicitly:
//
//	payload := rlp.List(rlp.Uint(nonce), rlp.Bytes(addr[:]))
//	enc := rlp.Encode(payload)
//	item, err := rlp.Decode(enc)
//
// Marshal and Unmarshal sit on top of it and map Go values to items by type,
// in go-ethereum's convention: a struct is the list of its exported fields in
// declaration order, a slice or array is a list, integers, bools and floats
// are byte strings. A layout declared as Go types is then written once, and
// Unmarshal checks every arity, width and size it implies (the ethsim
// checkpoint and the wire messages are such layouts):
//
//	var st Status
//	err := rlp.Unmarshal(enc, &st)
//
// The encoding rules follow the yellow paper / devp2p spec:
//
//   - a single byte in [0x00, 0x7f] encodes as itself;
//   - a 0–55 byte string encodes as 0x80+len followed by the string;
//   - a longer string encodes as 0xb7+lenlen, the big-endian length, payload;
//   - a list whose encoded payload is 0–55 bytes encodes as 0xc0+len, payload;
//   - a longer list encodes as 0xf7+lenlen, the big-endian length, payload.
package rlp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Kind discriminates the two RLP item kinds.
type Kind uint8

// Item kinds.
const (
	KindString Kind = iota
	KindList
)

// Item is a node of an RLP item tree.
type Item struct {
	Kind  Kind
	Str   []byte // valid when Kind == KindString
	Items []Item // valid when Kind == KindList
}

// Bytes returns a string item holding b.
func Bytes(b []byte) Item { return Item{Kind: KindString, Str: b} }

// String returns a string item holding s.
func String(s string) Item { return Item{Kind: KindString, Str: []byte(s)} }

// Uint returns a string item holding the minimal big-endian encoding of v.
// Zero encodes as the empty string, per the RLP convention for integers.
func Uint(v uint64) Item {
	if v == 0 {
		return Item{Kind: KindString}
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return Item{Kind: KindString, Str: append([]byte(nil), buf[8-bigEndianLen(v):]...)}
}

// List returns a list item of the given children.
func List(items ...Item) Item { return Item{Kind: KindList, Items: items} }

// AsUint interprets a string item as a big-endian unsigned integer.
func (it Item) AsUint() (uint64, error) {
	if it.Kind != KindString {
		return 0, errors.New("rlp: uint from list item")
	}
	if len(it.Str) > 8 {
		return 0, fmt.Errorf("rlp: integer too large (%d bytes)", len(it.Str))
	}
	if len(it.Str) > 0 && it.Str[0] == 0 {
		return 0, errors.New("rlp: integer with leading zero")
	}
	var v uint64
	for _, b := range it.Str {
		v = v<<8 | uint64(b)
	}
	return v, nil
}

// AsBytes returns the item's byte string.
func (it Item) AsBytes() ([]byte, error) {
	if it.Kind != KindString {
		return nil, errors.New("rlp: bytes from list item")
	}
	return it.Str, nil
}

// AsList returns the item's children.
func (it Item) AsList() ([]Item, error) {
	if it.Kind != KindList {
		return nil, errors.New("rlp: list from string item")
	}
	return it.Items, nil
}

// encodedLen returns the byte length of the item's encoding.
func encodedLen(it Item) int {
	if it.Kind == KindString {
		n := len(it.Str)
		if n == 1 && it.Str[0] <= 0x7f {
			return 1
		}
		return headerLen(n) + n
	}
	payload := 0
	for _, c := range it.Items {
		payload += encodedLen(c)
	}
	return headerLen(payload) + payload
}

// headerLen returns the length of the header for a payload of n bytes.
func headerLen(n int) int {
	if n <= 55 {
		return 1
	}
	return 1 + bigEndianLen(uint64(n))
}

// bigEndianLen is the byte length of v without leading zeros (1 for zero).
func bigEndianLen(v uint64) int { return max(1, (bits.Len64(v)+7)/8) }

// Encode serializes the item tree to RLP bytes.
func Encode(it Item) []byte {
	buf := make([]byte, 0, encodedLen(it))
	return appendItem(buf, it)
}

func appendItem(buf []byte, it Item) []byte {
	if it.Kind == KindString {
		n := len(it.Str)
		if n == 1 && it.Str[0] <= 0x7f {
			return append(buf, it.Str[0])
		}
		buf = appendHeader(buf, 0x80, n)
		return append(buf, it.Str...)
	}
	payload := 0
	for _, c := range it.Items {
		payload += encodedLen(c)
	}
	buf = appendHeader(buf, 0xc0, payload)
	for _, c := range it.Items {
		buf = appendItem(buf, c)
	}
	return buf
}

func appendHeader(buf []byte, base byte, n int) []byte {
	if n <= 55 {
		return append(buf, base+byte(n))
	}
	ll := bigEndianLen(uint64(n))
	buf = append(buf, base+55+byte(ll))
	for shift := (ll - 1) * 8; shift >= 0; shift -= 8 {
		buf = append(buf, byte(n>>uint(shift)))
	}
	return buf
}

// Decode parses exactly one RLP item from data. Trailing bytes are an error.
func Decode(data []byte) (Item, error) {
	it, rest, err := decodeOne(data)
	if err != nil {
		return Item{}, err
	}
	if len(rest) != 0 {
		return Item{}, fmt.Errorf("rlp: %d trailing bytes", len(rest))
	}
	return it, nil
}

// DecodePrefix parses one RLP item from the front of data and returns the
// unconsumed remainder.
func DecodePrefix(data []byte) (Item, []byte, error) {
	return decodeOne(data)
}

var errTruncated = errors.New("rlp: truncated input")

func decodeOne(data []byte) (Item, []byte, error) {
	if len(data) == 0 {
		return Item{}, nil, errTruncated
	}
	b := data[0]
	kind, n, body := KindString, 0, data[1:]
	switch {
	case b <= 0x7f:
		return Item{Kind: KindString, Str: data[:1]}, data[1:], nil
	case b <= 0xb7:
		n = int(b - 0x80)
	case b >= 0xc0 && b <= 0xf7:
		kind, n = KindList, int(b-0xc0)
	default: // a long string (0xb8–0xbf) or list (0xf8–0xff)
		base, what := byte(0xb7), "string"
		if b >= 0xf8 {
			kind, base, what = KindList, 0xf7, "list"
		}
		var err error
		if n, body, err = longLength(data, b-base); err != nil {
			return Item{}, nil, err
		}
		if n <= 55 {
			return Item{}, nil, errors.New("rlp: non-canonical long " + what)
		}
	}
	if len(body) < n {
		return Item{}, nil, errTruncated
	}
	payload, rest := body[:n], body[n:]
	if kind == KindString {
		if n == 1 && payload[0] <= 0x7f {
			return Item{}, nil, errors.New("rlp: non-canonical single byte")
		}
		return Item{Kind: KindString, Str: payload}, rest, nil
	}
	items, err := decodeList(payload)
	if err != nil {
		return Item{}, nil, err
	}
	return Item{Kind: KindList, Items: items}, rest, nil
}

// longLength parses an ll-byte big-endian length following the header byte.
func longLength(data []byte, ll byte) (int, []byte, error) {
	if len(data) < 1+int(ll) {
		return 0, nil, errTruncated
	}
	lenBytes := data[1 : 1+ll]
	if lenBytes[0] == 0 {
		return 0, nil, errors.New("rlp: length with leading zero")
	}
	var n uint64
	for _, lb := range lenBytes {
		n = n<<8 | uint64(lb)
		if n > 1<<31 {
			return 0, nil, errors.New("rlp: length overflow")
		}
	}
	return int(n), data[1+ll:], nil
}

func decodeList(payload []byte) ([]Item, error) {
	var items []Item
	for len(payload) > 0 {
		it, rest, err := decodeOne(payload)
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		payload = rest
	}
	return items, nil
}
