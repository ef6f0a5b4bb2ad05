module leases/bench

go 1.22

require leases v0.0.0

replace leases => ../
