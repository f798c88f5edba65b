"""RL004 good: mutating a cube built inside the function is fine."""


def fold_segments(load_base, extend_relation, paths):
    cube = load_base(paths[0])
    for path in paths[1:]:
        relation, start_tid = extend_relation(path)
        cube.merge(relation, start_tid)
    return cube
