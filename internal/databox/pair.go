package databox

import (
	"encoding/binary"
	"errors"
)

// Wire helpers for container operations: a (key, value) pair travels as two
// length-prefixed fields so the handler can split them without knowing the
// element types.

// AppendField appends a length-prefixed byte field to out.
func AppendField(out, field []byte) []byte {
	out = binary.AppendUvarint(out, uint64(len(field)))
	return append(out, field...)
}

// ReadField splits one length-prefixed field off data, returning the field
// and the remainder.
func ReadField(data []byte) (field, rest []byte, err error) {
	l, n := binary.Uvarint(data)
	if n <= 0 || l > uint64(len(data)-n) {
		return nil, nil, errors.New("databox: truncated field")
	}
	return data[n : n+int(l)], data[n+int(l):], nil
}

// EncodePair concatenates two fields.
func EncodePair(a, b []byte) []byte {
	out := make([]byte, 0, len(a)+len(b)+8)
	out = AppendField(out, a)
	return AppendField(out, b)
}

// DecodePair splits a two-field buffer.
func DecodePair(data []byte) (a, b []byte, err error) {
	a, rest, err := ReadField(data)
	if err != nil {
		return nil, nil, err
	}
	b, rest, err = ReadField(rest)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) != 0 {
		return nil, nil, errors.New("databox: trailing bytes after pair")
	}
	return a, b, nil
}

// EncodeList concatenates any number of fields with a leading count.
func EncodeList(fields ...[]byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(fields)))
	for _, f := range fields {
		out = AppendField(out, f)
	}
	return out
}

// DecodeList splits a count-prefixed field list.
func DecodeList(data []byte) ([][]byte, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, errors.New("databox: truncated list")
	}
	rest := data[n:]
	out := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		var f []byte
		var err error
		f, rest, err = ReadField(rest)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	if len(rest) != 0 {
		return nil, errors.New("databox: trailing bytes after list")
	}
	return out, nil
}
