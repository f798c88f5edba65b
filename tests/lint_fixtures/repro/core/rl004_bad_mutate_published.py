"""RL004 bad: merging straight into the published cube."""


class Maintainer:
    def __init__(self, serving):
        self.serving = serving

    def refresh(self, relation, start_tid):
        # Every in-flight query races this half-applied merge.
        self.serving.cube.merge(relation, start_tid)
