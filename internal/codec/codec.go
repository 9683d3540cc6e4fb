// Package codec serializes Go values into the immutable byte buffers stored
// in the distributed object store. Ray proper uses Apache Arrow; here we use
// encoding/gob (stdlib) behind a small API so applications never touch the
// encoding directly, plus fast paths for the bulk numeric payloads the
// machine-learning workloads move around (float32/float64 slices) and for
// the scalars that tiny tasks pass and return, for which gob's reflection
// and per-call type descriptors would dominate the cost of the task.
//
// Every payload is one tag byte followed by the value's wire form:
//
//	tag 0  gob           a gob stream holding the value (any other type)
//	tag 1  []float64     8 bytes per element, little-endian IEEE 754
//	tag 2  []float32     4 bytes per element, little-endian IEEE 754
//	tag 3  []byte        the bytes themselves
//	tag 4  string        the string's bytes
//	tag 5  int kinds     int, int8, int16, int32, int64: zig-zag varint
//	tag 6  uint kinds    uint, uint8, uint16, uint32, uint64, uintptr: uvarint
//	tag 7  float kinds   float32, float64: 8 bytes, little-endian float64 bits
//	tag 8  bool          1 byte, 0 or 1
//
// The scalar tags (5-8) cover the built-in types only, matched by exact
// type; a named scalar type such as time.Duration still goes through gob.
// A scalar decodes into every destination gob would accept for the same
// value: a pointer to any type of the same family, named types included,
// with an error when the value overflows the destination.
package codec

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
)

// Type tags distinguishing the fast paths from the generic gob encoding.
const (
	tagGob     byte = 0
	tagFloat64 byte = 1
	tagFloat32 byte = 2
	tagBytes   byte = 3
	tagString  byte = 4
	tagInt     byte = 5
	tagUint    byte = 6
	tagFloat   byte = 7
	tagBool    byte = 8
)

// Encode serializes a value. []float64, []float32, []byte, string and the
// built-in scalar types use compact fast paths (see the package doc for the
// wire forms); everything else goes through gob. The result is a fresh
// buffer the caller owns: this is the one serialization copy of a put, and
// the object store adopts the buffer without copying it again.
func Encode(v any) ([]byte, error) {
	switch x := v.(type) {
	case int:
		return encodeInt(int64(x)), nil
	case int8:
		return encodeInt(int64(x)), nil
	case int16:
		return encodeInt(int64(x)), nil
	case int32:
		return encodeInt(int64(x)), nil
	case int64:
		return encodeInt(x), nil
	case uint:
		return encodeUint(uint64(x)), nil
	case uint8:
		return encodeUint(uint64(x)), nil
	case uint16:
		return encodeUint(uint64(x)), nil
	case uint32:
		return encodeUint(uint64(x)), nil
	case uint64:
		return encodeUint(x), nil
	case uintptr:
		return encodeUint(uint64(x)), nil
	case float32:
		return encodeFloat(float64(x)), nil
	case float64:
		return encodeFloat(x), nil
	case bool:
		if x {
			return []byte{tagBool, 1}, nil
		}
		return []byte{tagBool, 0}, nil
	case []float64:
		out := make([]byte, 1+8*len(x))
		out[0] = tagFloat64
		for i, f := range x {
			binary.LittleEndian.PutUint64(out[1+8*i:], math.Float64bits(f))
		}
		return out, nil
	case []float32:
		out := make([]byte, 1+4*len(x))
		out[0] = tagFloat32
		for i, f := range x {
			binary.LittleEndian.PutUint32(out[1+4*i:], math.Float32bits(f))
		}
		return out, nil
	case []byte:
		out := make([]byte, 1+len(x))
		out[0] = tagBytes
		copy(out[1:], x)
		return out, nil
	case string:
		out := make([]byte, 1+len(x))
		out[0] = tagString
		copy(out[1:], x)
		return out, nil
	default:
		var buf bytes.Buffer
		buf.WriteByte(tagGob)
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			return nil, fmt.Errorf("codec: encode %T: %w", v, err)
		}
		return buf.Bytes(), nil
	}
}

func encodeInt(i int64) []byte {
	return binary.AppendVarint(append(make([]byte, 0, 1+binary.MaxVarintLen64), tagInt), i)
}

func encodeUint(u uint64) []byte {
	return binary.AppendUvarint(append(make([]byte, 0, 1+binary.MaxVarintLen64), tagUint), u)
}

func encodeFloat(f float64) []byte {
	out := make([]byte, 9)
	out[0] = tagFloat
	binary.LittleEndian.PutUint64(out[1:], math.Float64bits(f))
	return out
}

// MustEncode is Encode for values that cannot fail (slices, numbers, simple
// structs); it panics on error and exists to keep example code readable.
func MustEncode(v any) []byte {
	b, err := Encode(v)
	if err != nil {
		panic(err)
	}
	return b
}

// Decode deserializes data produced by Encode into out, which must be a
// pointer to a value of the encoded type. A built-in scalar may also decode
// into a pointer to any type of its family, as it could with gob (see the
// package doc).
//
// A []byte result is a view of data, not a copy: it shares data's backing
// array, with its capacity clipped to its length so that an append
// reallocates instead of writing past the payload. Payloads read from the
// object store are immutable and shared by every reader on the node, so a
// caller must copy a decoded []byte before mutating it — the read-only
// contract of Ray's get. Every other type is decoded into fresh memory.
func Decode(data []byte, out any) error {
	if len(data) == 0 {
		return fmt.Errorf("codec: empty payload")
	}
	tag, payload := data[0], data[1:]
	switch tag {
	case tagFloat64:
		p, ok := out.(*[]float64)
		if !ok {
			return fmt.Errorf("codec: payload is []float64, destination is %T", out)
		}
		if len(payload)%8 != 0 {
			return fmt.Errorf("codec: corrupt float64 payload")
		}
		vals := make([]float64, len(payload)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		*p = vals
		return nil
	case tagFloat32:
		p, ok := out.(*[]float32)
		if !ok {
			return fmt.Errorf("codec: payload is []float32, destination is %T", out)
		}
		if len(payload)%4 != 0 {
			return fmt.Errorf("codec: corrupt float32 payload")
		}
		vals := make([]float32, len(payload)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
		}
		*p = vals
		return nil
	case tagBytes:
		p, ok := out.(*[]byte)
		if !ok {
			return fmt.Errorf("codec: payload is []byte, destination is %T", out)
		}
		*p = payload[:len(payload):len(payload)]
		return nil
	case tagString:
		p, ok := out.(*string)
		if !ok {
			return fmt.Errorf("codec: payload is string, destination is %T", out)
		}
		*p = string(payload)
		return nil
	case tagInt:
		i, n := binary.Varint(payload)
		if n <= 0 || n != len(payload) {
			return fmt.Errorf("codec: corrupt int payload")
		}
		switch p := out.(type) {
		case *int64:
			if p != nil {
				*p = i
				return nil
			}
		case *int:
			if p != nil && int64(int(i)) == i {
				*p = int(i)
				return nil
			}
		}
		return decodeScalar(out, tag, uint64(i))
	case tagUint:
		u, n := binary.Uvarint(payload)
		if n <= 0 || n != len(payload) {
			return fmt.Errorf("codec: corrupt uint payload")
		}
		return decodeScalar(out, tag, u)
	case tagFloat:
		if len(payload) != 8 {
			return fmt.Errorf("codec: corrupt float payload")
		}
		bits := binary.LittleEndian.Uint64(payload)
		if p, ok := out.(*float64); ok && p != nil {
			*p = math.Float64frombits(bits)
			return nil
		}
		return decodeScalar(out, tag, bits)
	case tagBool:
		if len(payload) != 1 || payload[0] > 1 {
			return fmt.Errorf("codec: corrupt bool payload")
		}
		if p, ok := out.(*bool); ok && p != nil {
			*p = payload[0] == 1
			return nil
		}
		return decodeScalar(out, tag, uint64(payload[0]))
	case tagGob:
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(out); err != nil {
			return fmt.Errorf("codec: decode into %T: %w", out, err)
		}
		return nil
	default:
		return fmt.Errorf("codec: unknown type tag %d", tag)
	}
}

var (
	gobDecoderType        = reflect.TypeFor[gob.GobDecoder]()
	binaryUnmarshalerType = reflect.TypeFor[encoding.BinaryUnmarshaler]()
)

// decodeScalar is Decode's fallback for a scalar payload whose destination
// the type switches do not name. It applies gob's rules, so that a value
// decodes exactly where it did before the scalar tags existed: out is a
// non-nil pointer, possibly through further pointers (allocated as needed),
// to a type of the payload's family that does not decode itself
// (gob.GobDecoder, encoding.BinaryUnmarshaler), and the value fits it. A nil
// out discards the value. bits holds the value: the int64 or uint64 itself,
// the float64's IEEE 754 bits, or 0/1 for a bool.
func decodeScalar(out any, tag byte, bits uint64) error {
	if out == nil {
		return nil
	}
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("codec: decode into %T: destination is not a non-nil pointer", out)
	}
	t := rv.Type().Elem()
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	var family bool
	switch k := t.Kind(); tag {
	case tagInt:
		family = k >= reflect.Int && k <= reflect.Int64
	case tagUint:
		family = k >= reflect.Uint && k <= reflect.Uintptr
	case tagFloat:
		family = k == reflect.Float32 || k == reflect.Float64
	default:
		family = k == reflect.Bool
	}
	pt := reflect.PointerTo(t)
	if !family || pt.Implements(gobDecoderType) || pt.Implements(binaryUnmarshalerType) {
		return fmt.Errorf("codec: scalar payload (tag %d) does not decode into %T", tag, out)
	}
	zero := reflect.Zero(t)
	if tag == tagInt && zero.OverflowInt(int64(bits)) ||
		tag == tagUint && zero.OverflowUint(bits) ||
		tag == tagFloat && zero.OverflowFloat(math.Float64frombits(bits)) {
		return fmt.Errorf("codec: value out of range for %T", out)
	}
	v := rv.Elem()
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		v = v.Elem()
	}
	switch tag {
	case tagInt:
		v.SetInt(int64(bits))
	case tagUint:
		v.SetUint(bits)
	case tagFloat:
		v.SetFloat(math.Float64frombits(bits))
	default:
		v.SetBool(bits == 1)
	}
	return nil
}
