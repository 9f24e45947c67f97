// Package trace records and replays memory access traces in a compact
// varint-delta binary format, so interesting workloads (attack patterns,
// captured generator streams) can be stored, shared, and re-driven through
// the simulator deterministically.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/workload"
)

// magic identifies trace streams; the version byte allows format evolution.
const magic = "TWTR\x01"

// Writer serialises accesses.
type Writer struct {
	w        *bufio.Writer
	lastAddr uint64
	count    int64
}

// NewWriter starts a trace stream on w.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one access.
func (t *Writer) Write(a workload.Access) error {
	var buf [binary.MaxVarintLen64 + binary.MaxVarintLen32 + 1]byte
	// Address as zig-zag delta from the previous access (streams compress
	// to one byte per access); flags bit 0 = write. The subtraction is
	// two's-complement modular arithmetic: the reader adds the delta back
	// mod 2^64, so apparent overflow round-trips exactly.
	delta := int64(a.Addr) - int64(t.lastAddr) //twicelint:checked wrapping delta encoding is intentional
	n := binary.PutVarint(buf[:], delta)
	n += binary.PutUvarint(buf[n:], uint64(a.Gap))
	flags := byte(0)
	if a.Write {
		flags = 1
	}
	buf[n] = flags
	n++
	if _, err := t.w.Write(buf[:n]); err != nil {
		return fmt.Errorf("trace: writing access: %w", err)
	}
	t.lastAddr = a.Addr
	t.count++
	return nil
}

// Flush completes the stream.
func (t *Writer) Flush() error { return t.w.Flush() }

// Reader deserialises accesses.
type Reader struct {
	r        *bufio.Reader
	lastAddr uint64
}

// NewReader opens a trace stream, validating the header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head) != magic {
		return nil, errors.New("trace: bad magic (not a trace stream or wrong version)")
	}
	return &Reader{r: br}, nil
}

// Read returns the next access, or io.EOF at end of stream.
func (t *Reader) Read() (workload.Access, error) {
	delta, err := binary.ReadVarint(t.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return workload.Access{}, io.EOF
		}
		return workload.Access{}, fmt.Errorf("trace: reading address: %w", err)
	}
	gap, err := binary.ReadUvarint(t.r)
	if err != nil {
		return workload.Access{}, fmt.Errorf("trace: reading gap: %w", err)
	}
	flags, err := t.r.ReadByte()
	if err != nil {
		return workload.Access{}, fmt.Errorf("trace: reading flags: %w", err)
	}
	if gap > math.MaxInt32 {
		return workload.Access{}, fmt.Errorf("trace: gap %d out of range (corrupt stream)", gap)
	}
	addr := uint64(int64(t.lastAddr) + delta) //twicelint:checked inverse of the wrapping delta encoding
	t.lastAddr = addr
	return workload.Access{Addr: addr, Gap: int(gap), Write: flags&1 != 0}, nil //twicelint:checked gap bounded to MaxInt32 above
}

// Replayer adapts a fully read trace into a workload.Generator that loops
// over the recorded accesses.
type Replayer struct {
	name     string
	accesses []workload.Access
	pos      int
}

// NewReplayer reads the whole stream and returns a looping generator.
func NewReplayer(name string, r io.Reader) (*Replayer, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var acc []workload.Access
	for {
		a, err := tr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		acc = append(acc, a)
	}
	if len(acc) == 0 {
		return nil, errors.New("trace: empty trace")
	}
	return &Replayer{name: name, accesses: acc}, nil
}

// Name implements workload.Generator.
func (r *Replayer) Name() string { return r.name }

// Next implements workload.Generator, looping over the recording.
func (r *Replayer) Next() workload.Access {
	a := r.accesses[r.pos]
	r.pos++
	if r.pos == len(r.accesses) {
		r.pos = 0
	}
	return a
}

// Record captures n accesses from a generator into w.
func Record(w io.Writer, g workload.Generator, n int) error {
	tw, err := NewWriter(w)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := tw.Write(g.Next()); err != nil {
			return err
		}
	}
	return tw.Flush()
}
