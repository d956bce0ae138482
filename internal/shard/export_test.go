package shard

// Bytes returns the total bytes written across all spill files. Production
// code reads it through SpillConfig.Counters ("spill.bytes"); the tests
// compare the two.
func (s *Spill) Bytes() int64 { return s.bytes }

// Evictions returns how many times the resident-read cap forced the
// record buffers to disk mid-stream (the final flush is not an eviction;
// "spill.evictions" in SpillConfig.Counters).
func (s *Spill) Evictions() int64 { return s.evictions }
