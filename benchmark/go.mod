module xseq/benchmark

go 1.22

require xseq v0.0.0

replace xseq => ../
