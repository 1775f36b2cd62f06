package core

import (
	"errors"

	"visualprint/internal/bloom"
)

// Clone returns a deep copy of the oracle: one direct copy of every filter's
// words, sharing the immutable projection family. It is the per-batch cost of
// the server's copy-on-write ingest — the same order as the word-by-word scan
// odelta.Diff makes of both versions every batch.
func (o *Oracle) Clone() *Oracle {
	c := &Oracle{p: o.p, hasher: o.hasher, inserts: o.inserts, primary: make([]*bloom.Counting, len(o.primary))}
	for t, cf := range o.primary {
		c.primary[t] = cf.Clone()
	}
	if o.verify != nil {
		c.verify = o.verify.Clone()
	}
	return c
}

// Merge folds src's filters into dst (same parameters). Counting filters add
// counter-wise with saturation and the verification filter ORs bit-wise, so
// the merged oracle is bitwise identical to one that saw every insert of both
// — the property the multi-venue router relies on to assemble a venue-wide
// oracle from per-shard oracles (see bloom.Counting.MergeFrom for the
// saturation argument). dst is mutated; src is read-only.
func Merge(dst, src *Oracle) error {
	if dst.p != src.p {
		return errors.New("core: merge between oracles with different parameters")
	}
	for t := range dst.primary {
		if err := dst.primary[t].MergeFrom(src.primary[t]); err != nil {
			return err
		}
	}
	if dst.verify != nil {
		if err := dst.verify.MergeFrom(src.verify); err != nil {
			return err
		}
	}
	dst.inserts += src.inserts
	return nil
}
