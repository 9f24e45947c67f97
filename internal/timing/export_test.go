package timing

import (
	"repro/internal/clock"
	"repro/internal/dram"
)

// BankBusyUntil reports the end of the bank's REF/ARR occupancy.
func (c *Checker) BankBusyUntil(id dram.BankID) clock.Time {
	return c.bank(id).busyUntil
}
