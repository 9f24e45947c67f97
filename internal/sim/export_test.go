package sim

import "repro/internal/dram"

// Device exposes the DRAM device (for flip inspection).
func (m *Machine) Device() *dram.Device { return m.dev }
