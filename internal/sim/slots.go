package sim

// slotChunk is how many slots a Slots table adds each time it grows.
const slotChunk = 16

// Slots is a table of reusable slots for outstanding transactions — the
// software shape of a hardware table such as a shell's outstanding-request
// table — whose index names a transaction in typed events (AtCall) and
// packet deliveries. The zero value is an empty table. It grows a chunk
// at a time, only while every slot is taken, and never moves a slot, so a
// slot's address (and any Signal embedded in it) stays valid for the
// life of the table. Freed slots are reused, most recently freed first.
type Slots[T any] struct {
	chunks []*slotsChunk[T]
	free   uint64 // index+1 of the first free slot, 0 when none is
	n      uint64 // slots created
}

type slotsChunk[T any] struct {
	slot [slotChunk]T
	next [slotChunk]uint64 // free-list links, as free is
}

// Take returns the index of a free slot, growing the table when none is.
// The slot still holds what its previous user left there.
//
//t3d:hotpath
func (t *Slots[T]) Take() uint64 {
	if i := t.free; i > 0 {
		t.free = t.chunks[(i-1)/slotChunk].next[(i-1)%slotChunk]
		return i - 1
	}
	if t.n%slotChunk == 0 {
		//lint:allow hotalloc the table grows only while every slot is taken, a chunk at a time, up to the peak number outstanding; slots are reused for the life of the table
		t.chunks = append(t.chunks, new(slotsChunk[T]))
	}
	t.n++
	return t.n - 1
}

// Free returns slot i to the table.
func (t *Slots[T]) Free(i uint64) {
	t.chunks[i/slotChunk].next[i%slotChunk] = t.free
	t.free = i + 1
}

// At returns slot i, which must have been taken at least once.
func (t *Slots[T]) At(i uint64) *T { return &t.chunks[i/slotChunk].slot[i%slotChunk] }

// Len reports how many slots the table holds, taken or free; slots
// 0..Len()-1 can be walked in index order.
func (t *Slots[T]) Len() uint64 { return t.n }
