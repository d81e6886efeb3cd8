package quality

import "slices"

// rowBlocks is a column of rows, each width values wide, stored in blocks
// of blockRows rows so that a derivation can share every block of its
// parent and copy only the blocks it writes: a round that touches k rows
// copies the block headers plus at most k blocks, not the column. A
// published rowBlocks is immutable. The contributor index keeps its
// per-user touched-discussion sets this way, and each shard engine its
// scope bits.
type rowBlocks[T any] struct {
	blocks [][]T
	width  int
}

// blockRows is the number of rows a block holds.
const blockRows = 16

// blocksOf carves flat, which holds rows of the given width back to
// back, into full-capped blocks without copying it.
func blocksOf[T any](flat []T, width int) rowBlocks[T] {
	n := len(flat) / width
	b := rowBlocks[T]{blocks: make([][]T, (n+blockRows-1)/blockRows), width: width}
	for k := range b.blocks {
		lo, hi := k*blockRows*width, min((k+1)*blockRows, n)*width
		b.blocks[k] = flat[lo:hi:hi]
	}
	return b
}

// rows returns the number of rows.
func (b rowBlocks[T]) rows() int {
	if len(b.blocks) == 0 {
		return 0
	}
	return (len(b.blocks)-1)*blockRows + len(b.blocks[len(b.blocks)-1])/b.width
}

// row returns row r.
func (b rowBlocks[T]) row(r int) []T {
	off := uint(r) % blockRows * uint(b.width)
	return b.blocks[uint(r)/blockRows][off : off+uint(b.width)]
}

// derive returns a successor sharing every block with b.
func (b rowBlocks[T]) derive() rowBlocks[T] {
	return rowBlocks[T]{blocks: slices.Clone(b.blocks), width: b.width}
}

// own returns row r of a derivation of parent for writing, first copying
// its block when the block is still parent's. A block is parent's while
// it starts at the same element; parent must have b's width.
func (b rowBlocks[T]) own(parent rowBlocks[T], r int) []T {
	k := r / blockRows
	if blk := b.blocks[k]; &blk[0] == &parent.blocks[k][0] {
		b.blocks[k] = slices.Clone(blk)
	}
	return b.row(r)
}
