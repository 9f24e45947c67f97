package graphene

// TableEntries reports the per-bank state cost.
func (g *Graphene) TableEntries() int { return g.cfg.Entries }

// Stats returns detection and replacement counters.
func (g *Graphene) Stats() (detections, swaps int64) { return g.detections, g.swaps }
