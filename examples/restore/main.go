// restore demonstrates the checkpoint/restore machinery end to end: a
// directly-driven process image takes a full checkpoint followed by
// delta-compressed incrementals; a simulated total-node failure destroys
// the live process; the image is rebuilt from the (remotely stored)
// encoded chain and verified byte-for-byte.
package main

import (
	"fmt"
	"log"

	"aic"
)

func main() {
	proc := aic.NewProcess(4096)

	// A small "application": a table of counters plus a streaming buffer.
	fill := func(page uint64, seed byte) {
		buf := make([]byte, 4096)
		for i := range buf {
			buf[i] = seed + byte(i%251)
		}
		proc.Write(page, 0, buf)
	}
	for p := uint64(0); p < 64; p++ {
		fill(p, byte(p))
	}

	// The chain starts with a full checkpoint (shipped to remote storage).
	var remoteChain [][]byte
	remoteChain = append(remoteChain, proc.FullCheckpoint())
	fmt.Printf("full checkpoint: %d pages, %d bytes\n", proc.Pages(), len(remoteChain[0]))

	// Three epochs of execution with delta checkpoints in between.
	for epoch := 1; epoch <= 3; epoch++ {
		for i := 0; i < 40; i++ {
			page := uint64((epoch*13 + i*7) % 64)
			proc.Write(page, (i*97)%4000, []byte{byte(epoch), byte(i), 0xEE})
		}
		if epoch == 2 {
			proc.Free(63) // application shrinks its heap
		}
		enc, st := proc.DeltaCheckpoint()
		remoteChain = append(remoteChain, enc)
		fmt.Printf("epoch %d delta checkpoint: %d hot + %d raw pages, %d → %d bytes (ratio %.2f)\n",
			epoch, st.HotPages, st.RawPages, st.InputBytes, st.OutputBytes, st.Ratio())
	}

	fmt.Println("\n*** total node failure: local process and disk lost ***")
	fmt.Printf("restoring from the remote chain of %d checkpoints...\n", len(remoteChain))

	image, err := aic.RestoreImage(remoteChain)
	if err != nil {
		log.Fatal(err)
	}
	if !image.Matches(proc) {
		log.Fatal("restored image does not match the pre-failure process")
	}
	fmt.Printf("restored %d pages; image is byte-identical to the pre-failure process ✓\n", image.Pages())
	if image.Page(63) != nil {
		log.Fatal("freed page survived the restore")
	}
	fmt.Println("freed page correctly absent after restore ✓")

	// The codec is also available directly.
	src := []byte("the working set before the epoch")
	dst := []byte("the working set AFTER the epoch!")
	stream := aic.DeltaEncode(src, dst, 8)
	back, err := aic.DeltaDecode(src, stream)
	if err != nil || string(back) != string(dst) {
		log.Fatal("delta codec round trip failed")
	}
	fmt.Printf("standalone delta codec: %d-byte target encoded in %d bytes ✓\n", len(dst), len(stream))
}
