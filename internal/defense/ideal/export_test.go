package ideal

// CountersPerBank reports the state cost the scheme pays (for comparisons
// against TWiCe's table bound).
func (d *Ideal) CountersPerBank() int { return d.cfg.DRAM.RowsPerBank }

// Detections returns the number of aggressors flagged.
func (d *Ideal) Detections() int64 { return d.detections }
