// Package codec serializes Go values into the immutable byte buffers stored
// in the distributed object store. Ray proper uses Apache Arrow; here we use
// encoding/gob (stdlib) behind a small API so applications never touch the
// encoding directly, plus fast paths for the bulk numeric payloads the
// machine-learning workloads move around (float32/float64 slices), for which
// gob's reflection overhead would distort the data-plane benchmarks.
package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
)

// Type tags distinguishing the fast paths from the generic gob encoding.
const (
	tagGob     byte = 0
	tagFloat64 byte = 1
	tagFloat32 byte = 2
	tagBytes   byte = 3
	tagString  byte = 4
)

// Encode serializes a value. []float64, []float32, []byte and string use
// compact fast paths; everything else goes through gob. The result is a
// fresh buffer the caller owns: this is the one serialization copy of a put,
// and the object store adopts the buffer without copying it again.
func Encode(v any) ([]byte, error) {
	switch x := v.(type) {
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
// pointer to a value of the encoded type.
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
	case tagGob:
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(out); err != nil {
			return fmt.Errorf("codec: decode into %T: %w", out, err)
		}
		return nil
	default:
		return fmt.Errorf("codec: unknown type tag %d", tag)
	}
}
