package ray_test

import (
	"context"
	"testing"

	"ray/ray"
)

// BenchmarkPutGetBytes measures the []byte data plane end to end: ray.Put on
// node 0, a consumer pinned to node 1 that reads the object (one pull plus a
// decode), and Get of the consumer's result. Run with -benchmem: B/op counts
// every copy of the payload the runtime makes.
func BenchmarkPutGetBytes(b *testing.B) {
	for _, tc := range []struct {
		name string
		size int
	}{{"64KiB", 64 << 10}, {"8MiB", 8 << 20}} {
		b.Run(tc.name, func(b *testing.B) {
			ctx := context.Background()
			cfg := ray.DefaultConfig()
			cfg.Nodes = 2
			cfg.LabelNodes = true
			rt, err := ray.Init(ctx, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Shutdown()
			d, err := rt.NewDriverOn(ctx, rt.Cluster().NodeList()[0])
			if err != nil {
				b.Fatal(err)
			}
			consume, err := ray.Register1(rt, "consume", "length of the input",
				func(ctx *ray.Context, data []byte) (int, error) { return len(data), nil })
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, tc.size)
			b.SetBytes(int64(tc.size))
			b.ReportAllocs()
			for b.Loop() {
				ref, err := ray.Put(d, payload)
				if err != nil {
					b.Fatal(err)
				}
				n, err := consume.RemoteRef(d, ref, ray.OnNode(1))
				if err != nil {
					b.Fatal(err)
				}
				got, err := ray.Get(d, n)
				if err != nil || got != tc.size {
					b.Fatalf("consume = %d, %v; want %d", got, err, tc.size)
				}
				ray.Free(d, ref)
				ray.Free(d, n)
			}
		})
	}
}
