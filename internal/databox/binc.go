package databox

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
)

// bincCodec is the library's native compact binary codec: varint integers,
// length-prefixed strings and slices, count-prefixed maps with
// deterministically ordered keys, and structs encoded field by field in
// declaration order. It plays the role the paper assigns to MSGPACK: the
// fast default backend.
type bincCodec struct{}

// Binc returns the native compact binary codec.
func Binc() Codec { return bincCodec{} }

// Name implements Codec.
func (bincCodec) Name() string { return "binc" }

// Marshal implements Codec.
func (bincCodec) Marshal(v any) ([]byte, error) {
	if v == nil {
		return nil, errors.New("binc: cannot marshal nil")
	}
	return bincAppend(nil, reflect.ValueOf(v))
}

// Unmarshal implements Codec.
func (bincCodec) Unmarshal(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return errors.New("binc: unmarshal target must be a non-nil pointer")
	}
	n, err := bincRead(data, rv.Elem())
	if err != nil {
		return err
	}
	return bincTrailing(data, n)
}

func bincTrailing(data []byte, n int) error {
	if n != len(data) {
		return fmt.Errorf("binc: %d trailing bytes", len(data)-n)
	}
	return nil
}

// grow returns dst with room for n more bytes, reallocating at most once
// and to exactly that size.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	out := make([]byte, len(dst), len(dst)+n)
	copy(out, dst)
	return out
}

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// appendBincString is binc's string encoding: [uvarint len][bytes].
func appendBincString(dst []byte, s string) []byte {
	dst = grow(dst, uvarintLen(uint64(len(s)))+len(s))
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendBincBytes is binc's []byte encoding: [0] for nil, else
// [1][uvarint len][bytes].
func appendBincBytes(dst, b []byte) []byte {
	if b == nil {
		return append(dst, 0)
	}
	dst = grow(dst, 1+uvarintLen(uint64(len(b)))+len(b))
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// readBincString decodes a binc string into *s, reporting bytes consumed.
func readBincString(data []byte, s *string) (int, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 || l > uint64(len(data)-n) {
		return 0, errBincShort
	}
	*s = string(data[n : n+int(l)])
	return n + int(l), nil
}

// readBincBytes decodes a binc []byte into *b (a copy, never aliasing
// data), reporting bytes consumed.
func readBincBytes(data []byte, b *[]byte) (int, error) {
	if len(data) < 1 {
		return 0, errBincShort
	}
	if data[0] == 0 {
		*b = nil
		return 1, nil
	}
	l, n := binary.Uvarint(data[1:])
	if n <= 0 || l > uint64(len(data)-1-n) {
		return 0, errBincShort
	}
	p := 1 + n
	out := make([]byte, l)
	copy(out, data[p:])
	*b = out
	return p + int(l), nil
}

func bincAppend(out []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(out, 1), nil
		}
		return append(out, 0), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(out, v.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return binary.AppendUvarint(out, v.Uint()), nil
	case reflect.Float32:
		return binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(v.Float()))), nil
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(out, math.Float64bits(v.Float())), nil
	case reflect.String:
		out = binary.AppendUvarint(out, uint64(v.Len()))
		return append(out, v.String()...), nil
	case reflect.Slice:
		if v.IsNil() {
			return append(out, 0), nil
		}
		out = append(out, 1)
		fallthrough
	case reflect.Array:
		if v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8 {
			out = binary.AppendUvarint(out, uint64(v.Len()))
			return append(out, v.Bytes()...), nil
		}
		out = binary.AppendUvarint(out, uint64(v.Len()))
		var err error
		for i := 0; i < v.Len(); i++ {
			if out, err = bincAppend(out, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return out, nil
	case reflect.Map:
		if v.IsNil() {
			return append(out, 0), nil
		}
		out = append(out, 1)
		out = binary.AppendUvarint(out, uint64(v.Len()))
		// Encode entries sorted by encoded key so output is
		// deterministic (required for content-addressed tests).
		type kv struct {
			kb []byte
			vv reflect.Value
		}
		entries := make([]kv, 0, v.Len())
		it := v.MapRange()
		for it.Next() {
			kb, err := bincAppend(nil, it.Key())
			if err != nil {
				return nil, err
			}
			entries = append(entries, kv{kb, it.Value()})
		}
		sort.Slice(entries, func(i, j int) bool {
			return string(entries[i].kb) < string(entries[j].kb)
		})
		var err error
		for _, e := range entries {
			out = append(out, e.kb...)
			if out, err = bincAppend(out, e.vv); err != nil {
				return nil, err
			}
		}
		return out, nil
	case reflect.Pointer:
		if v.IsNil() {
			return append(out, 0), nil
		}
		return bincAppend(append(out, 1), v.Elem())
	case reflect.Struct:
		var err error
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			if out, err = bincAppend(out, v.Field(i)); err != nil {
				return nil, err
			}
		}
		return out, nil
	case reflect.Interface:
		return nil, fmt.Errorf("binc: interface values are not encodable; use a concrete type")
	default:
		return nil, fmt.Errorf("binc: unsupported kind %v", v.Kind())
	}
}

var errBincShort = errors.New("binc: truncated input")

func bincRead(data []byte, v reflect.Value) (int, error) {
	switch v.Kind() {
	case reflect.Bool:
		if len(data) < 1 {
			return 0, errBincShort
		}
		v.SetBool(data[0] != 0)
		return 1, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x, n := binary.Varint(data)
		if n <= 0 {
			return 0, errBincShort
		}
		v.SetInt(x)
		return n, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, errBincShort
		}
		v.SetUint(x)
		return n, nil
	case reflect.Float32:
		if len(data) < 4 {
			return 0, errBincShort
		}
		v.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(data))))
		return 4, nil
	case reflect.Float64:
		if len(data) < 8 {
			return 0, errBincShort
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(data)))
		return 8, nil
	case reflect.String:
		l, n := binary.Uvarint(data)
		if n <= 0 || l > uint64(len(data)-n) {
			return 0, errBincShort
		}
		v.SetString(string(data[n : n+int(l)]))
		return n + int(l), nil
	case reflect.Slice:
		if len(data) < 1 {
			return 0, errBincShort
		}
		if data[0] == 0 {
			v.SetZero()
			return 1, nil
		}
		p := 1
		l, n := binary.Uvarint(data[p:])
		if n <= 0 {
			return 0, errBincShort
		}
		p += n
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if l > uint64(len(data)-p) {
				return 0, errBincShort
			}
			b := make([]byte, l)
			copy(b, data[p:p+int(l)])
			v.SetBytes(b)
			return p + int(l), nil
		}
		s := reflect.MakeSlice(v.Type(), int(l), int(l))
		for i := 0; i < int(l); i++ {
			n, err := bincRead(data[p:], s.Index(i))
			if err != nil {
				return 0, err
			}
			p += n
		}
		v.Set(s)
		return p, nil
	case reflect.Array:
		l, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, errBincShort
		}
		if int(l) != v.Len() {
			return 0, fmt.Errorf("binc: array length %d, encoded %d", v.Len(), l)
		}
		p := n
		for i := 0; i < v.Len(); i++ {
			n, err := bincRead(data[p:], v.Index(i))
			if err != nil {
				return 0, err
			}
			p += n
		}
		return p, nil
	case reflect.Map:
		if len(data) < 1 {
			return 0, errBincShort
		}
		if data[0] == 0 {
			v.SetZero()
			return 1, nil
		}
		p := 1
		l, n := binary.Uvarint(data[p:])
		if n <= 0 {
			return 0, errBincShort
		}
		p += n
		m := reflect.MakeMapWithSize(v.Type(), int(l))
		for i := 0; i < int(l); i++ {
			k := reflect.New(v.Type().Key()).Elem()
			n, err := bincRead(data[p:], k)
			if err != nil {
				return 0, err
			}
			p += n
			val := reflect.New(v.Type().Elem()).Elem()
			n, err = bincRead(data[p:], val)
			if err != nil {
				return 0, err
			}
			p += n
			m.SetMapIndex(k, val)
		}
		v.Set(m)
		return p, nil
	case reflect.Pointer:
		if len(data) < 1 {
			return 0, errBincShort
		}
		if data[0] == 0 {
			v.SetZero()
			return 1, nil
		}
		e := reflect.New(v.Type().Elem())
		n, err := bincRead(data[1:], e.Elem())
		if err != nil {
			return 0, err
		}
		v.Set(e)
		return 1 + n, nil
	case reflect.Struct:
		p := 0
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			n, err := bincRead(data[p:], v.Field(i))
			if err != nil {
				return 0, err
			}
			p += n
		}
		return p, nil
	default:
		return 0, fmt.Errorf("binc: unsupported kind %v", v.Kind())
	}
}
