package rlp

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync"
)

// Marshal encodes v by its Go type: a struct is the list of its exported
// fields in declaration order, a slice or array is a list, and the scalars
// are byte strings — unsigned integers as themselves, int/int32/int64 as
// their two's-complement uint64, bool as 0/1, float64 as its IEEE-754 bits,
// and string, []byte and [N]byte as their bytes. A pointer encodes as what
// it points to.
func Marshal(v any) ([]byte, error) {
	it, err := toItem(reflect.ValueOf(v))
	if err != nil {
		return nil, err
	}
	return Encode(it), nil
}

// Unmarshal decodes data into the value v points to, by the rules Marshal
// writes. A list of the wrong length for a struct or array, an integer that
// overflows its field, a [N]byte of another size, a bool other than 0/1 and
// trailing bytes are errors naming the field path. An empty byte string
// decodes to a nil []byte, and no decoded byte slice aliases data.
func Unmarshal(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return errors.New("rlp: Unmarshal needs a non-nil pointer")
	}
	it, err := Decode(data)
	if err != nil {
		return err
	}
	if err := fromItem(it, rv.Elem()); err != nil {
		return prefix(err, rv.Elem().Type().String())
	}
	return nil
}

// fieldError is a decoding error and the path of the field it arose in.
type fieldError struct {
	path string
	err  error
}

func (e *fieldError) Error() string { return e.err.Error() + " at " + e.path }
func (e *fieldError) Unwrap() error { return e.err }

// prefix puts seg in front of err's field path; paths are assembled on the
// way out of a failed decode, so a successful one builds no strings.
func prefix(err error, seg string) error {
	var fe *fieldError
	if errors.As(err, &fe) {
		fe.path = seg + fe.path
		return fe
	}
	return &fieldError{path: seg, err: err}
}

func isBytes(t reflect.Type) bool { return t.Elem().Kind() == reflect.Uint8 }

var fieldCache sync.Map // struct type → exported's answer

// exported lists the indices of t's exported fields: the struct's list.
func exported(t reflect.Type) []int {
	if out, ok := fieldCache.Load(t); ok {
		return out.([]int)
	}
	var out []int
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).IsExported() {
			out = append(out, i)
		}
	}
	fieldCache.Store(t, out)
	return out
}

func toItem(v reflect.Value) (Item, error) {
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return Uint(v.Uint()), nil
	case reflect.Int, reflect.Int32, reflect.Int64:
		return Uint(uint64(v.Int())), nil
	case reflect.Bool:
		if v.Bool() {
			return Uint(1), nil
		}
		return Uint(0), nil
	case reflect.Float64:
		return Uint(math.Float64bits(v.Float())), nil
	case reflect.String:
		return String(v.String()), nil
	case reflect.Pointer:
		if v.IsNil() {
			return Item{}, fmt.Errorf("rlp: nil %s", v.Type())
		}
		return toItem(v.Elem())
	case reflect.Slice, reflect.Array:
		if isBytes(v.Type()) {
			if v.Kind() == reflect.Slice {
				return Bytes(v.Bytes()), nil
			}
			b := make([]byte, v.Len())
			reflect.Copy(reflect.ValueOf(b), v)
			return Bytes(b), nil
		}
		items := make([]Item, v.Len())
		for i := range items {
			it, err := toItem(v.Index(i))
			if err != nil {
				return Item{}, err
			}
			items[i] = it
		}
		return List(items...), nil
	case reflect.Struct:
		fields := exported(v.Type())
		items := make([]Item, len(fields))
		for k, i := range fields {
			it, err := toItem(v.Field(i))
			if err != nil {
				return Item{}, err
			}
			items[k] = it
		}
		return List(items...), nil
	}
	return Item{}, fmt.Errorf("rlp: unsupported type %s", v.Type())
}

func fromItem(it Item, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Int, reflect.Int32, reflect.Int64, reflect.Bool, reflect.Float64:
		u, err := it.AsUint()
		if err != nil {
			return err
		}
		switch v.Kind() {
		case reflect.Bool:
			if u > 1 {
				return fmt.Errorf("rlp: bool %d", u)
			}
			v.SetBool(u == 1)
		case reflect.Float64:
			v.SetFloat(math.Float64frombits(u))
		case reflect.Int, reflect.Int32, reflect.Int64:
			if v.OverflowInt(int64(u)) {
				return fmt.Errorf("rlp: %d overflows %s", u, v.Type())
			}
			v.SetInt(int64(u))
		default:
			if v.OverflowUint(u) {
				return fmt.Errorf("rlp: %d overflows %s", u, v.Type())
			}
			v.SetUint(u)
		}
	case reflect.String:
		b, err := it.AsBytes()
		v.SetString(string(b))
		return err
	case reflect.Slice, reflect.Array:
		if isBytes(v.Type()) {
			b, err := it.AsBytes()
			switch {
			case err != nil:
				return err
			case v.Kind() == reflect.Array && len(b) != v.Len():
				return fmt.Errorf("rlp: %d bytes for %s", len(b), v.Type())
			case v.Kind() == reflect.Array:
				reflect.Copy(v, reflect.ValueOf(b))
			case len(b) == 0:
				v.SetZero()
			default:
				v.SetBytes(append([]byte(nil), b...))
			}
			return nil
		}
		items, err := it.AsList()
		switch {
		case err != nil:
			return err
		case v.Kind() == reflect.Array && len(items) != v.Len():
			return fmt.Errorf("rlp: %d items for %s", len(items), v.Type())
		case v.Kind() == reflect.Slice && len(items) == 0:
			v.SetZero()
		case v.Kind() == reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), len(items), len(items)))
		}
		for i := range items {
			if err := fromItem(items[i], v.Index(i)); err != nil {
				return prefix(err, "["+strconv.Itoa(i)+"]")
			}
		}
	case reflect.Struct:
		items, err := it.AsList()
		if err != nil {
			return err
		}
		fields := exported(v.Type())
		if len(items) != len(fields) {
			return fmt.Errorf("rlp: %d fields for %s, want %d", len(items), v.Type(), len(fields))
		}
		for k, i := range fields {
			if err := fromItem(items[k], v.Field(i)); err != nil {
				return prefix(err, "."+v.Type().Field(i).Name)
			}
		}
	default:
		return fmt.Errorf("rlp: unsupported type %s", v.Type())
	}
	return nil
}
