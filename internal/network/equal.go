package network

import (
	"slices"

	"enframe/internal/event"
)

// Equal reports whether two networks are identical column for column — node
// kinds, child spans, payloads (⊗ constants bit for bit), and targets — and
// were built over variable spaces of the same size. Marginal
// probabilities are not compared: they are replay inputs, not structure, so
// a decision circuit traced over one network replays over the other at any
// probabilities. The streaming plane keeps a window segment's circuit
// across a re-ground exactly when the old and new networks are Equal.
func Equal(a, b *Net) bool {
	return len(a.VarNode) == len(b.VarNode) &&
		slices.Equal(a.Kind, b.Kind) &&
		slices.Equal(a.KidOff, b.KidOff) && slices.Equal(a.Kids, b.Kids) &&
		slices.Equal(a.Arg, b.Arg) &&
		slices.EqualFunc(a.Vals, b.Vals, func(x, y event.Value) bool { return sameBits(&x, &y) }) &&
		slices.Equal(a.Targets, b.Targets)
}
