package engine

// WithBatch returns c with its extraction batch set to n results. The test
// fixture's bins hold at most 120 results, fewer than batchSize, so only a
// smaller batch hands work to the shards before a bin closes.
func WithBatch(c Config, n int) Config {
	c.batch = n
	return c
}
