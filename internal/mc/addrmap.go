package mc

import (
	"fmt"
	"math/bits"

	"repro/internal/dram"
)

// AddrMap translates between flat physical byte addresses and DRAM
// coordinates. The bit layout, from least significant upward, is
//
//	[line offset][channel][column][bank][rank][row]
//
// so consecutive cache lines interleave across channels first and then walk
// the columns of one row — the layout that gives streaming workloads their
// row-buffer locality while spreading load over channels, as in the paper's
// simulated system.
type AddrMap struct {
	p        dram.Params
	lineBits uint
	chBits   uint
	colBits  uint
	bankBits uint
	rankBits uint
	rowBits  uint
}

// NewAddrMap builds the mapper. Geometry fields of p must be powers of two.
func NewAddrMap(p dram.Params) (*AddrMap, error) {
	fields := []struct {
		name string
		v    int
	}{
		{"LineBytes", p.LineBytes},
		{"Channels", p.Channels},
		{"ColumnsPerRow", p.ColumnsPerRow},
		{"BanksPerRank", p.BanksPerRank},
		{"RanksPerChannel", p.RanksPerChannel},
		{"RowsPerBank", p.RowsPerBank},
	}
	for _, f := range fields {
		if f.v <= 0 || f.v&(f.v-1) != 0 {
			return nil, fmt.Errorf("mc: %s = %d is not a power of two", f.name, f.v)
		}
	}
	m := &AddrMap{
		p:        p,
		lineBits: uint(bits.TrailingZeros(uint(p.LineBytes))),
		chBits:   uint(bits.TrailingZeros(uint(p.Channels))),
		colBits:  uint(bits.TrailingZeros(uint(p.ColumnsPerRow))),
		bankBits: uint(bits.TrailingZeros(uint(p.BanksPerRank))),
		rankBits: uint(bits.TrailingZeros(uint(p.RanksPerChannel))),
		rowBits:  uint(bits.TrailingZeros(uint(p.RowsPerBank))),
	}
	if total := m.lineBits + m.chBits + m.colBits + m.bankBits + m.rankBits + m.rowBits; total > 63 {
		return nil, fmt.Errorf("mc: geometry needs %d address bits, beyond the 63-bit address space", total)
	}
	return m, nil
}

// field extracts the low `width` bits of a as a coordinate, returning the
// coordinate and the remaining high bits. NewAddrMap bounds the sum of all
// field widths to 63, so each extracted value fits an int.
func field(a uint64, width uint) (int, uint64) {
	return int(a & (1<<width - 1)), a >> width //twicelint:checked field widths sum to ≤63 (NewAddrMap)
}

// Decompose maps a byte address to its DRAM coordinate. Addresses beyond
// capacity wrap (high bits are ignored), matching real systems' modulo
// decoding.
func (m *AddrMap) Decompose(addr uint64) dram.Addr {
	a := addr >> m.lineBits
	var out dram.Addr
	out.Channel, a = field(a, m.chBits)
	out.Col, a = field(a, m.colBits)
	out.Bank, a = field(a, m.bankBits)
	out.Rank, a = field(a, m.rankBits)
	out.Row, _ = field(a, m.rowBits)
	return out
}

// Compose maps a DRAM coordinate back to the base byte address of the line.
func (m *AddrMap) Compose(a dram.Addr) uint64 {
	v := uint64(a.Row)
	v = v<<m.rankBits | uint64(a.Rank)
	v = v<<m.bankBits | uint64(a.Bank)
	v = v<<m.colBits | uint64(a.Col)
	v = v<<m.chBits | uint64(a.Channel)
	return v << m.lineBits
}
