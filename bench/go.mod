module pimassembler/bench

go 1.22

require pimassembler v0.0.0

replace pimassembler => ../
