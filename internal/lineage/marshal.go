package lineage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary serialization of lineage expressions: a compact post-order
// encoding used by catalog's binary relation format, which — unlike CSV —
// can persist *derived* relations whose tuples carry arbitrary lineage.
//
// Wire format (all integers unsigned varints unless noted):
//
//	expr   := node*
//	node   := 0x00                      // false
//	        | 0x01                      // true
//	        | 0x02 relRef id            // var
//	        | 0x03                      // not   (pops 1)
//	        | 0x04 n                    // and   (pops n)
//	        | 0x05 n                    // or    (pops n)
//	relRef := varint index into the relation-name dictionary
//
// The relation-name dictionary is shared across expressions of one stream
// (see Encoder/Decoder) so that names are written once.

// Encoder writes expressions to a stream with a shared name dictionary.
type Encoder struct {
	w     io.Writer
	names map[string]uint64
	order []string
	buf   []byte
}

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, names: make(map[string]uint64)}
}

// Encode writes one expression. The name dictionary grows on demand; new
// names are emitted inline as (0xFF, len, bytes) before the node that
// first uses them.
func (enc *Encoder) Encode(e *Expr) error {
	if e == nil {
		return fmt.Errorf("lineage: cannot encode nil expression")
	}
	enc.buf = enc.buf[:0]
	if err := enc.encode(e); err != nil {
		return err
	}
	// Frame: total length then payload, so decoders can stream.
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(enc.buf)))
	if _, err := enc.w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := enc.w.Write(enc.buf)
	return err
}

func (enc *Encoder) encode(e *Expr) error {
	switch e.kind {
	case KindFalse:
		enc.buf = append(enc.buf, 0x00)
	case KindTrue:
		enc.buf = append(enc.buf, 0x01)
	case KindVar:
		ref, ok := enc.names[e.v.Rel]
		if !ok {
			ref = uint64(len(enc.order))
			enc.names[e.v.Rel] = ref
			enc.order = append(enc.order, e.v.Rel)
			enc.buf = append(enc.buf, 0xFF)
			enc.buf = appendUvarint(enc.buf, uint64(len(e.v.Rel)))
			enc.buf = append(enc.buf, e.v.Rel...)
		}
		enc.buf = append(enc.buf, 0x02)
		enc.buf = appendUvarint(enc.buf, ref)
		enc.buf = appendUvarint(enc.buf, uint64(e.v.ID))
	case KindNot:
		if err := enc.encode(e.kids[0]); err != nil {
			return err
		}
		enc.buf = append(enc.buf, 0x03)
	case KindAnd, KindOr:
		for _, k := range e.kids {
			if err := enc.encode(k); err != nil {
				return err
			}
		}
		op := byte(0x04)
		if e.kind == KindOr {
			op = 0x05
		}
		enc.buf = append(enc.buf, op)
		enc.buf = appendUvarint(enc.buf, uint64(len(e.kids)))
	default:
		return fmt.Errorf("lineage: cannot encode kind %v", e.kind)
	}
	return nil
}

func appendUvarint(b []byte, x uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], x)
	return append(b, tmp[:n]...)
}

// Decoder reads expressions written by an Encoder.
type Decoder struct {
	r       *countingReader
	names   []string
	frame   io.LimitedReader
	payload bytes.Buffer // reused frame buffer; nothing decoded aliases it
}

type countingReader struct {
	r io.Reader
	b [1]byte
}

func (cr *countingReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(cr.r, cr.b[:]); err != nil {
		return 0, err
	}
	return cr.b[0], nil
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: &countingReader{r: r}}
}

// Decode reads the next expression.
func (dec *Decoder) Decode() (*Expr, error) {
	size, err := binary.ReadUvarint(dec.r)
	if err != nil {
		return nil, err
	}
	// The frame grows only as its bytes arrive, so a corrupt size cannot
	// force an allocation the input does not back.
	dec.frame = io.LimitedReader{R: dec.r.r, N: int64(min(size, math.MaxInt64))}
	dec.payload.Reset()
	n, err := dec.payload.ReadFrom(&dec.frame)
	if err != nil {
		return nil, err
	}
	if uint64(n) != size {
		return nil, io.ErrUnexpectedEOF
	}
	payload := dec.payload.Bytes()
	var stack []*Expr
	i := 0
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(payload[i:])
		if n <= 0 {
			return 0, fmt.Errorf("lineage: corrupt varint at %d", i)
		}
		i += n
		return v, nil
	}
	pop := func(n int) ([]*Expr, error) {
		if len(stack) < n {
			return nil, fmt.Errorf("lineage: stack underflow")
		}
		kids := make([]*Expr, n)
		copy(kids, stack[len(stack)-n:])
		stack = stack[:len(stack)-n]
		return kids, nil
	}
	for i < len(payload) {
		op := payload[i]
		i++
		switch op {
		case 0x00:
			stack = append(stack, False())
		case 0x01:
			stack = append(stack, True())
		case 0x02:
			ref, err := readUvarint()
			if err != nil {
				return nil, err
			}
			if ref >= uint64(len(dec.names)) {
				return nil, fmt.Errorf("lineage: undefined name reference %d", ref)
			}
			id, err := readUvarint()
			if err != nil {
				return nil, err
			}
			stack = append(stack, NewVar(dec.names[ref], int(id)))
		case 0x03:
			kids, err := pop(1)
			if err != nil {
				return nil, err
			}
			stack = append(stack, Not(kids[0]))
		case 0x04, 0x05:
			n, err := readUvarint()
			if err != nil {
				return nil, err
			}
			if n > uint64(len(stack)) {
				return nil, fmt.Errorf("lineage: corrupt operand count %d", n)
			}
			kids, err := pop(int(n))
			if err != nil {
				return nil, err
			}
			if op == 0x04 {
				stack = append(stack, And(kids...))
			} else {
				stack = append(stack, Or(kids...))
			}
		case 0xFF:
			n, err := readUvarint()
			if err != nil {
				return nil, err
			}
			if uint64(len(payload)-i) < n {
				return nil, fmt.Errorf("lineage: truncated name")
			}
			dec.names = append(dec.names, string(payload[i:i+int(n)]))
			i += int(n)
		default:
			return nil, fmt.Errorf("lineage: unknown opcode 0x%02x", op)
		}
	}
	if len(stack) != 1 {
		return nil, fmt.Errorf("lineage: malformed expression (stack depth %d)", len(stack))
	}
	return stack[0], nil
}
