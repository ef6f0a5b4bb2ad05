package server

// FixedTermConfig returns cfg with the reuse stretch off: every lease
// runs exactly cfg.Term, the paper's rule, so a test can set it beside
// the shipped one.
func FixedTermConfig(cfg Config) Config {
	cfg.noStretch = true
	return cfg
}
