"""RL004 bad: the merge function writes its base unless told apply=False."""


class Maintainer:
    def __init__(self, serving):
        self.serving = serving

    def refresh(self, merge_closed_cubes, relation, start_tid):
        # Applies the slots outside the engine's write lock.
        return merge_closed_cubes(self.serving.cube, relation, start_tid)
