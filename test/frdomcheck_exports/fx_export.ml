let internal x = x + 1

let used x = 2 * internal x

let unused x = x - 1
