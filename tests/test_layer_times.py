'''The work counts of tests/layer_times.py --count repeat from one fresh process to the next.'''

import json

import layer_times


def test_work_counts_repeat_across_fresh_processes(tmp_path):
    out = tmp_path / 'layers.json'
    assert layer_times.main(['--points', '2', '--repeat', '1', '--count',
                             '--out', str(out)]) == 0
    layers = json.loads(out.read_text())['layers']
    assert set(layers) == set(layer_times.LAYERS)
    for entry in layers.values():
        assert entry['opcodes'] > entry['calls'] > 0
    again = layer_times.work_counts('heyting_report', 2)
    assert again == (layers['heyting_report']['opcodes'], layers['heyting_report']['calls'])
