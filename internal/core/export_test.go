package core

// WithChunk returns c with RunPlatform's generator chunk set to n results.
func WithChunk(c Config, n int) Config {
	c.chunk = n
	return c
}
