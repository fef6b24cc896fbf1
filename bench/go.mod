module skyloader/bench

go 1.22

require skyloader v0.0.0

replace skyloader => ../
