"""RL004 good: evaluate against the served cube, write only inside publish."""


class Maintainer:
    def __init__(self, serving):
        self.serving = serving

    def refresh(self, merge_closed_cubes, relation, start_tid):
        report = merge_closed_cubes(
            self.serving.cube, relation, start_tid, apply=False
        )
        self.serving.engine.publish(report.slots)
