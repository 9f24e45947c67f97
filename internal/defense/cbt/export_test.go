package cbt

import "repro/internal/dram"

// Leaves returns the current leaf count of a bank's tree.
func (c *CBT) Leaves(bank dram.BankID) int {
	return c.trees[bank.Flat(&c.cfg.DRAM)].leaves
}
