package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// stateMagic identifies TWiCe checkpoint streams.
const stateMagic = "TWCS\x01"

// WriteState serialises the engine's table contents so a long simulation can
// checkpoint and resume. The format records the identity-relevant
// configuration (thRH, organization, bank count) and every valid entry.
func (t *TWiCe) WriteState(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(stateMagic); err != nil {
		return fmt.Errorf("core: writing checkpoint header: %w", err)
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if err := putUvarint(uint64(t.cfg.ThRH)); err != nil {
		return err
	}
	if err := putUvarint(uint64(t.cfg.Org)); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(t.tables))); err != nil {
		return err
	}
	for i, tb := range t.tables {
		entries := tb.Snapshot()
		if err := putUvarint(uint64(len(entries))); err != nil {
			return err
		}
		for _, e := range entries {
			if err := putUvarint(uint64(e.Row)); err != nil {
				return err
			}
			if err := putUvarint(uint64(e.ActCnt)); err != nil {
				return err
			}
			if err := putUvarint(uint64(e.Life)); err != nil {
				return err
			}
		}
		if err := putUvarint(uint64(t.pending[i])); err != nil {
			return err
		}
	}
	if err := putUvarint(uint64(t.detections)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: flushing checkpoint: %w", err)
	}
	return nil
}

// ReadState restores a checkpoint written by WriteState into this engine.
// The engine must have been built with the same thRH, organization, and bank
// count; mismatches are rejected rather than silently misinterpreted.
func (t *TWiCe) ReadState(r io.Reader) error {
	br := bufio.NewReader(r)
	head := make([]byte, len(stateMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return fmt.Errorf("core: reading checkpoint header: %w", err)
	}
	if string(head) != stateMagic {
		return errors.New("core: not a TWiCe checkpoint (bad magic)")
	}
	readU := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("core: reading %s: %w", what, err)
		}
		return v, nil
	}
	// readInt decodes a field that must fit the table's int-typed state; a
	// corrupt or hostile checkpoint cannot smuggle in a negative row or
	// count through unchecked narrowing.
	readInt := func(what string) (int, error) {
		v, err := readU(what)
		if err != nil {
			return 0, err
		}
		if v > math.MaxInt32 {
			return 0, fmt.Errorf("core: %s %d out of range in checkpoint", what, v)
		}
		return int(v), nil //twicelint:checked bounded to MaxInt32 above
	}
	thRH, err := readU("thRH")
	if err != nil {
		return err
	}
	org, err := readU("organization")
	if err != nil {
		return err
	}
	banks, err := readU("bank count")
	if err != nil {
		return err
	}
	// Compare in the uint64 domain: the engine-side values are known-good
	// non-negative ints, so widening them never loses information.
	if thRH != uint64(t.cfg.ThRH) || org != uint64(t.cfg.Org) || banks != uint64(len(t.tables)) {
		return fmt.Errorf("core: checkpoint mismatch: thRH=%d org=%d banks=%d vs engine thRH=%d org=%v banks=%d",
			thRH, org, banks, t.cfg.ThRH, t.cfg.Org, len(t.tables))
	}
	t.Reset()
	for i := range t.tables {
		n, err := readU("entry count")
		if err != nil {
			return err
		}
		for j := uint64(0); j < n; j++ {
			row, err := readInt("row")
			if err != nil {
				return err
			}
			cnt, err := readInt("act_cnt")
			if err != nil {
				return err
			}
			life, err := readInt("life")
			if err != nil {
				return err
			}
			if err := t.tables[i].Restore(Entry{Row: row, ActCnt: cnt, Life: life}); err != nil {
				return fmt.Errorf("core: restoring bank %d: %w", i, err)
			}
		}
		pend, err := readInt("pending ticks")
		if err != nil {
			return err
		}
		t.pending[i] = pend
	}
	det, err := readU("detections")
	if err != nil {
		return err
	}
	if det > math.MaxInt64 {
		return fmt.Errorf("core: detection count %d out of range in checkpoint", det)
	}
	t.detections = int64(det) //twicelint:checked bounded to MaxInt64 above
	return nil
}
