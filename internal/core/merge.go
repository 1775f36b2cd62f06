package core

import (
	"bytes"
	"errors"
)

// Clone returns a deep copy of the oracle (serialize/deserialize round
// trip).
func (o *Oracle) Clone() (*Oracle, error) {
	var buf bytes.Buffer
	if _, err := o.WriteTo(&buf); err != nil {
		return nil, err
	}
	return Read(&buf)
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
