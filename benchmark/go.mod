module streamop/benchmark

go 1.23

require streamop v0.0.0

replace streamop => ../
