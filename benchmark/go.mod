module github.com/gem-embeddings/gem/benchmark

go 1.22

require github.com/gem-embeddings/gem v0.0.0

replace github.com/gem-embeddings/gem => ../
