package mc

// HasSpace reports whether the channel's queue can accept a request.
func (s *System) HasSpace(channelIdx int) bool {
	return s.chans[channelIdx].nreads < s.cfg.QueueDepth
}

// WriteQueueLen returns the channel's write-buffer occupancy.
func (s *System) WriteQueueLen(channelIdx int) int { return s.chans[channelIdx].nwrites }

// Capacity returns the highest mappable address + 1.
func (m *AddrMap) Capacity() uint64 {
	return 1 << (m.lineBits + m.chBits + m.colBits + m.bankBits + m.rankBits + m.rowBits)
}
