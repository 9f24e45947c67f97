package rcd

import "repro/internal/defense"

// Defense returns the hosted defense.
func (r *RCD) Defense() defense.Defense { return r.def }
